// Command perfbench is the serving benchmark: it builds an index with the
// real `phrasemine build-index`, serves it with `phrasemine serve` in a
// child process, and drives it over loopback HTTP from this single
// load-generator process (at most nproc connections), checking every
// answer. With -trace 1 it also runs the traced pass (trace.go), which
// times the calls into each layer's public functions on the same inputs.
//
// Run it from the repository root through perfbench/run.sh, which builds
// both binaries first:
//
//	bash perfbench/run.sh --workload read-mono --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics BENCHMARK.json lists (end-to-end ones with
// -trace 0, per-layer ones with -trace 1). Every metric, including the
// workload-specific ones BENCHMARK.json cannot list, is printed by name and
// unit above it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"phrasemine/internal/server"
)

// workload is one traffic mix. Each is chosen so that some layer does most
// of its work in it and little in another (see BENCHMARK.json).
type workload struct {
	name string
	// sharded serves a 4-segment manifest instead of the monolithic
	// snapshot.
	sharded bool
	// ingest makes client 1 the open-loop writer.
	ingest bool
	// batch makes client 2 the closed-loop /mine/batch client.
	batch bool
	// serveArgs are the workload's own `phrasemine serve` flags.
	serveArgs []string
}

var workloads = []workload{
	{name: "read-mono", batch: true, serveArgs: []string{"-mmap"}},
	{name: "ingest-mono", ingest: true, serveArgs: []string{"-mmap", "-wal-sync", "always"}},
	{name: "read-sharded", sharded: true, serveArgs: []string{"-cache", "-1"}},
}

const (
	segments = 4
	// setupReps is how many times a run sets up from the corpus file; the
	// median is setup_s.
	setupReps = 3
	// minIngestCycles sizes ingest-mono so its named percentiles qualify:
	// p95 of write latency needs 200 writes, 7 cycles give 224.
	minIngestCycles = 7
	// traceCycles is how many schedule cycles the traced pass replays.
	traceCycles = 2
	// ingestCheckSample is how many pool requests are compared with a cold
	// build after ingest-mono's final flush.
	ingestCheckSample = 256
)

// gated lists the end-to-end metrics every workload reports in its JSON
// line (BENCHMARK.json's end_to_end); the others are printed only.
var gated = []string{"setup_s", "mine_qps", "mine_p50_ms", "mine_p99_ms", "server_heap_mb"}

// metric is one reported number.
type metric struct {
	Name  string
	Unit  string
	Value float64
	Note  string
}

// result is one run's outcome.
type result struct {
	attempted, failed int64
	correct           bool
	e2e, layers       []metric
	health            []string
}

func main() {
	name := flag.String("workload", "", "workload: read-mono, ingest-mono or read-sharded")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds (ingest-mono rounds up to whole 32-write cycles)")
	traceOn := flag.Int("trace", 0, "1 adds the traced per-layer pass and prints per-layer metrics")
	bin := flag.String("bin", "", "phrasemine CLI binary")
	work := flag.String("work", filepath.Join(".bench_build", "work"), "scratch directory")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *bin == "" || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -bin phrasemine --workload read-mono|ingest-mono|read-sharded --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, err := runWorkload(w, *bin, *work, *seed, *seconds, *traceOn == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *traceOn)
	for _, m := range append(append([]metric(nil), res.e2e...), res.layers...) {
		fmt.Printf("  %-38s %14.6g %-6s %s\n", m.Name, m.Value, m.Unit, m.Note)
	}
	for _, h := range res.health {
		fmt.Println("  " + h)
	}
	out := map[string]any{"correct": res.correct, "attempted": res.attempted, "failed": res.failed}
	metrics := make(map[string]any)
	if *traceOn == 1 {
		for _, m := range res.layers {
			metrics[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
		}
	} else {
		for _, m := range res.e2e {
			// ingest-mono is not in BENCHMARK.json (a run lasts at least
			// seven write cycles), so its line carries all of its metrics.
			if w.ingest || contains(gated, m.Name) {
				metrics[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
			}
		}
	}
	out["metrics"] = metrics
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.correct {
		os.Exit(1)
	}
}

// run state shared by the phases of one workload run.
type runner struct {
	w       *workload
	bin     string
	dir     string
	in      *Inputs
	conns   connCounter
	clients [2]*client
	srv     *serveProc
}

func (r *runner) file(name string) string { return filepath.Join(r.dir, name) }

func runWorkload(w *workload, bin, workRoot string, seed int64, seconds int, traced bool) (*result, error) {
	r := &runner{w: w, bin: bin}
	r.dir = filepath.Join(workRoot, fmt.Sprintf("%s-%d-%d", w.name, seed, os.Getpid()))
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.dir)
	r.clients = [2]*client{newClient(&r.conns), newClient(&r.conns)}
	defer func() {
		if r.srv != nil {
			r.srv.stop()
		}
	}()

	cycles := traceCycles
	if w.ingest {
		cycles = max(minIngestCycles, int(math.Ceil(float64(seconds)*writesPerSec/cycleWrites)))
	}
	var err error
	if r.in, err = generate(seed, cycles); err != nil {
		return nil, err
	}
	if err := r.in.writeFiles(r.dir); err != nil {
		return nil, err
	}
	logf("generated inputs for seed %d", seed)
	res := &result{}
	if w.sharded {
		// The monolithic snapshot answers the reference queries; build it
		// outside the timed set-up.
		if err := r.buildIndex(false); err != nil {
			return nil, err
		}
	}
	setups, err := r.setUp()
	if err != nil {
		return nil, err
	}
	answers := newAnswerLog()
	o, err := r.measure(seconds, answers)
	if err != nil {
		return nil, err
	}
	if o.rssMiB, err = r.srv.peakRSSMiB(); err != nil {
		return nil, err
	}
	r.srv.stop()
	r.srv = nil

	for _, s := range []*series{&o.mine, o.batch} {
		if s != nil {
			res.attempted += s.attempted
			res.failed += s.failed
			reportErr("request", s.firstErr)
		}
	}
	if o.ingest != nil {
		res.attempted += o.ingest.writes.attempted + o.compaction.attempted
		res.failed += o.ingest.writes.failed + o.compaction.failed
		reportErr("write", o.ingest.writes.firstErr)
	} else {
		wrong, err := r.checkReads(answers)
		if err != nil {
			return nil, err
		}
		res.failed += wrong
		logf("checked %d distinct answers against the in-process reference: %d wrong", len(answers.seen), wrong)
	}
	e2e, err := r.e2eMetrics(o, res)
	if err != nil {
		return nil, err
	}
	res.e2e = append([]metric{{Name: "setup_s", Unit: "s", Value: median(setups),
		Note: fmt.Sprintf("median of %d set-ups %s", len(setups), fmtList(setups, "%.3f"))}}, e2e...)
	if res.health, err = r.health(o); err != nil {
		return nil, err
	}
	if traced {
		if res.layers, err = runTraced(r, o); err != nil {
			return nil, err
		}
		logf("traced pass done")
	}
	res.correct = res.failed == 0
	return res, nil
}

// buildIndex runs `phrasemine build-index` for the monolithic snapshot or
// the sharded manifest.
func (r *runner) buildIndex(sharded bool) error {
	args := []string{"build-index", "-in", r.file("corpus.txt"), "-mindf", fmt.Sprint(minDocFreq)}
	if sharded {
		if err := os.RemoveAll(r.file("manifest")); err != nil {
			return err
		}
		args = append(args, "-segments", fmt.Sprint(segments), "-out", r.file("manifest"))
	} else {
		args = append(args, "-out", r.file("base.snap"))
	}
	return run(r.bin, args...)
}

// setUp goes from the corpus file to a warmed server setupReps times,
// keeping the last server running, and returns each set-up's duration.
func (r *runner) setUp() ([]float64, error) {
	var secs []float64
	for rep := 0; rep < setupReps; rep++ {
		if r.srv != nil {
			r.srv.stop()
			r.srv = nil
		}
		for _, c := range r.clients {
			c.tr.CloseIdleConnections()
		}
		if err := os.RemoveAll(r.file("wal")); err != nil {
			return nil, err
		}
		start := time.Now()
		if err := r.buildIndex(r.w.sharded); err != nil {
			return nil, err
		}
		args := append([]string{"-pprof"}, r.w.serveArgs...)
		if r.w.sharded {
			args = append(args, "-manifest", r.file("manifest"))
		} else {
			// The server checkpoints compactions into its snapshot path;
			// a link keeps base.snap as built for the reference and the
			// traced pass.
			serveSnap := r.file("serve.snap")
			if err := os.Remove(serveSnap); err != nil && !os.IsNotExist(err) {
				return nil, err
			}
			if err := os.Link(r.file("base.snap"), serveSnap); err != nil {
				return nil, err
			}
			args = append(args, "-index", serveSnap)
		}
		if r.w.ingest {
			args = append(args, "-wal-dir", r.file("wal"))
		}
		var err error
		if r.srv, err = startServe(r.bin, r.clients[0], args...); err != nil {
			return nil, err
		}
		ready := time.Since(start).Seconds()
		if err := r.warmUp(); err != nil {
			return nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
		logf("set-up %d: serving after %.2fs, warmed after %.2fs (%d keywords)", rep+1, ready, secs[rep], len(r.in.Keywords))
	}
	return secs, nil
}

// warmUp issues one query per distinct pool keyword and list fraction, so
// lazily built structures (SMJ fraction indexes, sharded globalized lists,
// posting decodes) are in place before timing. k=1 keeps these queries out
// of the pool's cache keys.
func (r *runner) warmUp() error {
	var bodies [][]byte
	for _, kw := range r.in.Keywords {
		for _, f := range fractions {
			b, err := json.Marshal(Request{Keywords: []string{kw}, Op: "OR", K: 1, Fraction: f})
			if err != nil {
				return err
			}
			bodies = append(bodies, b)
		}
	}
	errs := make([]error, len(r.clients))
	var wg sync.WaitGroup
	for ci, c := range r.clients {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			for i := ci; i < len(bodies) && errs[ci] == nil; i += len(r.clients) {
				errs[ci] = c.do("POST", "http://"+r.srv.addr+"/mine", bodies[i], nil)
			}
		}(ci, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// serverCounters is what the traced pass needs from the server's own
// counters, sampled before and after the timed window.
type serverCounters struct {
	stats   server.StatsResponse
	mallocs float64
	numGC   float64
	queries float64 // /mine queries plus batch items, as the server counts them
}

func (r *runner) counters() (serverCounters, error) {
	var sc serverCounters
	base := "http://" + r.srv.addr
	if err := r.clients[0].do("GET", base+"/stats", nil, &sc.stats); err != nil {
		return sc, err
	}
	var vars struct {
		Mallocs  float64 `json:"phrasemine_mallocs_total"`
		Queries  float64 `json:"phrasemine_queries_total"`
		Batches  float64 `json:"phrasemine_batch_queries_total"`
		MemStats struct {
			NumGC float64
		} `json:"memstats"`
	}
	if err := r.clients[0].do("GET", base+"/debug/vars", nil, &vars); err != nil {
		return sc, err
	}
	sc.mallocs, sc.numGC, sc.queries = vars.Mallocs, vars.MemStats.NumGC, vars.Queries+vars.Batches
	return sc, nil
}

// liveHeapMiB forces a collection in the serve process through the pprof
// heap endpoint and reads the live heap it reports. Unlike the peak
// resident set, which moves with garbage-collection timing, it depends only
// on what the server keeps.
func (r *runner) liveHeapMiB() (float64, error) {
	req, err := http.NewRequest(http.MethodGet, "http://"+r.srv.addr+"/debug/pprof/heap?gc=1&debug=1", nil)
	if err != nil {
		return 0, err
	}
	resp, err := r.clients[0].http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# HeapAlloc = "); ok {
			b, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return 0, err
			}
			return b / (1 << 20), nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no HeapAlloc in the heap profile (status %d)", resp.StatusCode)
}

// outcome is what the timed window observed.
type outcome struct {
	elapsed float64 // seconds
	cpu     float64 // load-generator CPU seconds
	mine    series
	batch   *series
	ingest  *ingestResult
	// compaction is the post-compaction sample's tally (ingest-mono).
	compaction tally
	// heapMiB and rssMiB are the serve process's live heap after the
	// window and its peak resident set.
	heapMiB, rssMiB float64
	// steal is the share of the machine's CPU time the host took away
	// during the window, which slows every timing of a run.
	steal float64
	// before and after are the server's counters around the window.
	before, after serverCounters
}

// hostCPU reads the machine's cumulative stolen and total CPU ticks.
func hostCPU() (steal, total float64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, f := range fields[1:9] { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0, err
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// measure runs the timed window. Read answers go to the answer log;
// ingest-mono's answers move with every write, so they are only checked
// for shape here and against a cold build after the final flush.
func (r *runner) measure(seconds int, answers *answerLog) (*outcome, error) {
	in := r.in
	addr := r.srv.addr
	poolBodies, err := marshalAll(in.Pool)
	if err != nil {
		return nil, err
	}
	batchBodies := make([][]byte, len(in.Batches))
	for i, b := range in.Batches {
		if batchBodies[i], err = json.Marshal(map[string]any{"queries": b}); err != nil {
			return nil, err
		}
	}
	docBodies, err := marshalAll(in.Stream)
	if err != nil {
		return nil, err
	}
	checkMine := func(idx int, resp *server.MineResponse) error {
		if r.w.ingest {
			if len(resp.Results) > in.Pool[idx].K {
				return fmt.Errorf("%+v: %d results", in.Pool[idx], len(resp.Results))
			}
			return nil
		}
		return answers.record(in.Pool[idx], resp.Results, resp.Cached)
	}
	checkBatch := func(bi int, resp *server.BatchResponse) error {
		if len(resp.Results) != len(in.Batches[bi]) {
			return fmt.Errorf("batch %d: %d answers for %d queries", bi, len(resp.Results), len(in.Batches[bi]))
		}
		for i, item := range resp.Results {
			if item.Error != "" {
				return fmt.Errorf("batch %d item %d: %s", bi, i, item.Error)
			}
			if err := answers.record(in.Batches[bi][i], item.Results, item.Cached); err != nil {
				return err
			}
		}
		return nil
	}

	out := &outcome{}
	if out.before, err = r.counters(); err != nil {
		return nil, err
	}
	runtime.GC()
	var ru0, ru1 syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru0)
	steal0, total0, err := hostCPU()
	if err != nil {
		return nil, err
	}
	st := newStream(in.Seed, len(in.Pool))
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		done = make(chan struct{})
	)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds) * time.Second)
	if r.w.ingest {
		deadline = start.Add(24 * time.Hour) // until the schedule ends
	}
	runMine := func(c *client) {
		defer wg.Done()
		s := mineLoop(c, addr, st, poolBodies, start, deadline, done, checkMine)
		mu.Lock()
		out.mine.merge(s)
		mu.Unlock()
	}
	wg.Add(2)
	switch {
	case r.w.ingest:
		go func() {
			defer wg.Done()
			defer close(done)
			out.ingest = writeLoop(r.clients[0], addr, in, docBodies, start)
		}()
		go runMine(r.clients[1])
	case r.w.batch:
		go runMine(r.clients[0])
		go func() {
			defer wg.Done()
			out.batch = batchLoop(r.clients[1], addr, batchBodies, start, deadline, done, checkBatch)
		}()
	default:
		go runMine(r.clients[0])
		go runMine(r.clients[1])
	}
	wg.Wait()
	out.elapsed = time.Since(start).Seconds()
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
	out.cpu = tvSeconds(ru1.Utime) + tvSeconds(ru1.Stime) - tvSeconds(ru0.Utime) - tvSeconds(ru0.Stime)
	steal1, total1, err := hostCPU()
	if err != nil {
		return nil, err
	}
	out.steal = ratio(steal1-steal0, total1-total0)
	logf("timed window: %.2fs", out.elapsed)
	if out.after, err = r.counters(); err != nil {
		return nil, err
	}
	if out.heapMiB, err = r.liveHeapMiB(); err != nil {
		return nil, err
	}
	if out.ingest != nil {
		if out.compaction, err = r.checkAfterCompaction(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// subWindows is how many equal parts a read window is split into: its
// throughput and latency percentiles are medians over the parts, so a
// burst of outside load during one part does not move them. A p99 is taken
// over fewer, longer parts when needed so that each holds at least
// p99Samples answers.
const (
	subWindows = 10
	p99Samples = 2000
)

// windowStats returns the medians over parts of the window of the per-part
// completion rate, median latency and p99 latency, with a note listing the
// rates.
func windowStats(name string, s *series, elapsed float64, parts int) (rate, p50, p99 float64, note string, err error) {
	var rates, p50s, p99s []float64
	for _, part := range splitWindow(s.ms, s.at, elapsed, parts) {
		rates = append(rates, float64(len(part))/(elapsed/float64(parts)))
		p50s = append(p50s, percentile(part, 50))
	}
	for _, part := range splitWindow(s.ms, s.at, elapsed, max(1, min(parts, len(s.ms)/p99Samples))) {
		p, err := namedPercentile(name, part, 99)
		if err != nil {
			return 0, 0, 0, "", err
		}
		p99s = append(p99s, p)
	}
	note = fmt.Sprintf("median of %d sub-windows %s; p99 over %d", parts, fmtList(rates, "%.0f"), len(p99s))
	return median(rates), median(p50s), median(p99s), note, nil
}

// e2eMetrics turns the window's outcome into the end-to-end metrics, after
// every answer check has been counted in res.
func (r *runner) e2eMetrics(o *outcome, res *result) ([]metric, error) {
	parts := subWindows
	if r.w.ingest {
		// Flush cycles make equal parts of an ingest window unlike.
		parts = 1
	}
	qps, p50, p99, note, err := windowStats("mine_p99_ms", &o.mine, o.elapsed, parts)
	if err != nil {
		return nil, err
	}
	ms := sampleNote(o.mine.ms)
	out := []metric{
		{Name: "mine_qps", Unit: "req/s", Value: qps,
			Note: fmt.Sprintf("%d answered in %.2fs, %d from cache; %s", len(o.mine.ms), o.elapsed, o.mine.cached, note)},
		{Name: "mine_p50_ms", Unit: "ms", Value: p50, Note: ms},
		{Name: "mine_p99_ms", Unit: "ms", Value: p99, Note: ms},
	}
	if b := o.batch; b != nil {
		bps, bp50, bp99, bnote, err := windowStats("batch_p99_ms", b, o.elapsed, parts)
		if err != nil {
			return nil, err
		}
		out = append(out,
			metric{Name: "batch_items_per_s", Unit: "items/s", Value: bps * float64(b.items) / float64(len(b.ms)),
				Note: fmt.Sprintf("%d items in %d batches; %s", b.items, len(b.ms), bnote)},
			metric{Name: "batch_p50_ms", Unit: "ms", Value: bp50, Note: sampleNote(b.ms)},
			metric{Name: "batch_p99_ms", Unit: "ms", Value: bp99, Note: sampleNote(b.ms)})
	}
	if in := o.ingest; in != nil {
		ip95, err := namedPercentile("ingest_p95_ms", append([]float64(nil), in.writes.ms...), 95)
		if err != nil {
			return nil, err
		}
		out = append(out,
			metric{Name: "ingest_p50_ms", Unit: "ms", Value: percentile(append([]float64(nil), in.writes.ms...), 50), Note: sampleNote(in.writes.ms)},
			metric{Name: "ingest_p95_ms", Unit: "ms", Value: ip95, Note: sampleNote(in.writes.ms)},
			metric{Name: "compact_s", Unit: "s", Value: median(in.flushes),
				Note: fmt.Sprintf("median of %d flushes %s", len(in.flushes), fmtList(in.flushes, "%.2f"))})
	}
	return append(out,
		metric{Name: "error_rate", Unit: "ratio", Value: ratio(float64(res.failed), float64(res.attempted)),
			Note: fmt.Sprintf("%d failed of %d attempted", res.failed, res.attempted)},
		metric{Name: "server_heap_mb", Unit: "MiB", Value: o.heapMiB, Note: "live heap of the serve process after a forced GC at the end of the window"},
		metric{Name: "server_rss_mb", Unit: "MiB", Value: o.rssMiB, Note: "peak (VmHWM) of the serve process"}), nil
}

// health describes the load generator itself, and refuses the run when it
// held more connections than there are cores.
func (r *runner) health(o *outcome) ([]string, error) {
	var h []string
	if in := o.ingest; in != nil {
		late := append([]float64(nil), in.late...)
		h = append(h, fmt.Sprintf("generator lateness: max %.2f ms, p95 %.2f ms over %d writes at %d/s",
			maxOf(late), percentile(late, 95), len(late), writesPerSec))
	}
	nproc := runtime.NumCPU()
	peak := int(r.conns.peak.Load())
	h = append(h, fmt.Sprintf("generator: peak %d connections (nproc %d), cpu share %.3f of %d cores; host steal %.1f%% of CPU time",
		peak, nproc, o.cpu/o.elapsed/float64(nproc), nproc, 100*o.steal))
	if peak > nproc {
		return nil, fmt.Errorf("load generator held %d connections at once, more than nproc=%d; run refused", peak, nproc)
	}
	return h, nil
}

var processStart = time.Now()

// logf reports progress on standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench %6.2fs: %s\n", time.Since(processStart).Seconds(), fmt.Sprintf(format, args...))
}

func reportErr(what string, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: first failure: %v\n", what, err)
	}
}

// sampleNote describes a latency sample: its size and the highest
// percentile it supports.
func sampleNote(ms []float64) string {
	xs := append([]float64(nil), ms...)
	hp := highestPercentile(len(xs))
	return fmt.Sprintf("n=%d; highest supported p%g = %.3f ms", len(xs), hp, percentile(xs, hp))
}

func marshalAll[T any](xs []T) ([][]byte, error) {
	out := make([][]byte, len(xs))
	for i, x := range xs {
		b, err := json.Marshal(x)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func fmtList(xs []float64, f string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(f, x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
