package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"phrasemine/internal/server"
)

// connCounter tracks the load generator's open connections, so a run can
// refuse itself when it held more than nproc at once.
type connCounter struct {
	open, peak atomic.Int64
}

func (cc *connCounter) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	n := cc.open.Add(1)
	for p := cc.peak.Load(); n > p && !cc.peak.CompareAndSwap(p, n); p = cc.peak.Load() {
	}
	return &countedConn{Conn: conn, cc: cc}, nil
}

type countedConn struct {
	net.Conn
	cc   *connCounter
	once sync.Once
}

func (c *countedConn) Close() error {
	c.once.Do(func() { c.cc.open.Add(-1) })
	return c.Conn.Close()
}

// client is one load-generator connection: a transport that keeps at most
// one connection to the server.
type client struct {
	http *http.Client
	tr   *http.Transport
}

func newClient(cc *connCounter) *client {
	tr := &http.Transport{
		DialContext:         cc.dial,
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &client{http: &http.Client{Transport: tr, Timeout: 60 * time.Second}, tr: tr}
}

// do sends one request and decodes a 2xx JSON answer into out (when
// non-nil). Transport errors and non-2xx answers are errors.
func (c *client) do(method, url string, body []byte, out any) error {
	_, err := c.send(method, url, body, out)
	return err
}

// send is do that also returns the request's latency: from sending it to
// having read the whole answer, before decoding.
func (c *client) send(method, url string, body []byte, out any) (ms float64, err error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	data, err := io.ReadAll(resp.Body)
	ms = sinceMs(start)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode/100 != 2 {
		return 0, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return 0, fmt.Errorf("%s %s: decoding answer: %w", method, url, err)
		}
	}
	return ms, nil
}

func (c *client) healthy(addr string) bool {
	return c.do(http.MethodGet, "http://"+addr+"/healthz", nil, nil) == nil
}

// tally counts operations: every attempted operation, and among them the
// refused, failed and wrongly answered ones. One goroutine owns a tally.
type tally struct {
	attempted, failed int64
	firstErr          error
}

// observe records one attempted operation and reports whether it
// succeeded.
func (t *tally) observe(err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
	return err == nil
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// series is one client's latency samples and outcomes.
type series struct {
	tally
	ms     []float64 // latency of each answered operation
	at     []float64 // its completion, seconds into the window
	cached int64
	items  int64 // batch items answered
}

func (s *series) sample(ms float64, start time.Time) {
	s.ms = append(s.ms, ms)
	s.at = append(s.at, time.Since(start).Seconds())
}

func (s *series) merge(o *series) {
	s.tally.add(o.tally)
	s.ms = append(s.ms, o.ms...)
	s.at = append(s.at, o.at...)
	s.cached += o.cached
	s.items += o.items
}

func sinceMs(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// running reports whether a closed loop goes on: the deadline has not
// passed and done (closed when the write schedule ends) is still open.
func running(deadline time.Time, done <-chan struct{}) bool {
	select {
	case <-done:
		return false
	default:
		return time.Now().Before(deadline)
	}
}

// mineLoop is one closed-loop /mine client: it sends the stream's next
// request as soon as the previous answer arrived, until the deadline,
// and checks every answer.
func mineLoop(c *client, addr string, st *stream, bodies [][]byte, window, deadline time.Time, done <-chan struct{},
	check func(idx int, resp *server.MineResponse) error) *series {
	s := &series{}
	url := "http://" + addr + "/mine"
	for running(deadline, done) {
		idx := st.next()
		var resp server.MineResponse
		ms, err := c.send(http.MethodPost, url, bodies[idx], &resp)
		if err == nil {
			err = check(idx, &resp)
		}
		if s.observe(err) {
			s.sample(ms, window)
			if resp.Cached {
				s.cached++
			}
		}
	}
	return s
}

// batchLoop is the closed-loop /mine/batch client: it cycles through the
// generated batch compositions until the deadline.
func batchLoop(c *client, addr string, bodies [][]byte, window, deadline time.Time, done <-chan struct{},
	check func(bi int, resp *server.BatchResponse) error) *series {
	s := &series{}
	url := "http://" + addr + "/mine/batch"
	for i := 0; running(deadline, done); i++ {
		bi := i % len(bodies)
		var resp server.BatchResponse
		ms, err := c.send(http.MethodPost, url, bodies[bi], &resp)
		if err == nil {
			err = check(bi, &resp)
		}
		if s.observe(err) {
			s.sample(ms, window)
			s.items += int64(len(resp.Results))
		}
	}
	return s
}

// ingestResult is the open-loop writer's outcome.
type ingestResult struct {
	writes  series    // latency from each write's due time
	late    []float64 // send time minus due time, ms
	flushes []float64 // POST /flush durations, s
}

// writeLoop replays the write schedule open-loop from start: each write is
// sent at its due time (or as soon as the connection is free, when the
// previous write or flush ran late), and the last write of every cycle is
// followed by POST /flush, after which /stats must report no pending
// updates.
func writeLoop(c *client, addr string, in *Inputs, docBodies [][]byte, start time.Time) *ingestResult {
	r := &ingestResult{}
	base := "http://" + addr
	for _, op := range in.Schedule {
		due := start.Add(time.Duration(op.DueMs) * time.Millisecond)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		r.late = append(r.late, sinceMs(due))
		var err error
		if op.Kind == "add" {
			err = c.do(http.MethodPost, base+"/docs", docBodies[op.Doc], nil)
		} else {
			err = c.do(http.MethodDelete, base+"/docs/"+strconv.Itoa(op.Delete), nil, nil)
		}
		if r.writes.observe(err) {
			r.writes.sample(sinceMs(due), start)
		}
		if !op.Flush {
			continue
		}
		fstart := time.Now()
		var fr struct {
			Pending int `json:"pending_updates"`
		}
		err = c.do(http.MethodPost, base+"/flush", nil, &fr)
		secs := time.Since(fstart).Seconds()
		var st server.StatsResponse
		if err == nil {
			err = c.do(http.MethodGet, base+"/stats", nil, &st)
		}
		if err == nil && (fr.Pending != 0 || st.PendingUpdates != 0) {
			err = fmt.Errorf("pending_updates %d (flush) / %d (stats) after flush, want 0", fr.Pending, st.PendingUpdates)
		}
		if r.writes.observe(err) {
			r.flushes = append(r.flushes, secs)
		}
	}
	return r
}
