package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serveProc is one running `phrasemine serve` child.
type serveProc struct {
	cmd  *exec.Cmd
	addr string
	done chan error
}

// run executes one CLI command to completion, its output going to stderr.
func run(bin string, args ...string) error {
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s %s: %w", bin, strings.Join(args, " "), err)
	}
	return nil
}

// startServe launches `phrasemine serve` on a free loopback port and
// waits until /healthz answers. The child dies with this process.
func startServe(bin string, c *client, args ...string) (*serveProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"serve", "-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting serve: %w", err)
	}
	p := &serveProc{cmd: cmd, addr: addr, done: make(chan error, 1)}
	go func() { p.done <- cmd.Wait() }()
	deadline := time.Now().Add(60 * time.Second)
	for {
		select {
		case err := <-p.done:
			p.done <- err
			return nil, fmt.Errorf("serve exited before it was ready: %v", err)
		default:
		}
		if c.healthy(addr) {
			return p, nil
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, fmt.Errorf("serve not ready after 60s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// peakRSSMiB reads the child's peak resident set (VmHWM).
func (p *serveProc) peakRSSMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

// stop shuts the child down gracefully, killing it if it lingers, and
// waits until it has exited.
func (p *serveProc) stop() {
	_ = p.cmd.Process.Signal(os.Interrupt)
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}
