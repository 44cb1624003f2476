package main

import (
	"errors"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{
		{20, 50, true},
		{19, 50, false},
		{100, 90, true},
		{99, 90, false},
		{200, 95, true},
		{199, 95, false},
		{1000, 99, true},
		{999, 99, false},
		{10000, 99.9, true},
		{9999, 99.9, false},
	} {
		if got := supports(tc.n, tc.p); got != tc.want {
			t.Errorf("supports(%d, p%g) = %t, want %t", tc.n, tc.p, got, tc.want)
		}
	}
	for _, tc := range []struct {
		n    int
		want float64
	}{{5, 0}, {20, 50}, {39, 50}, {40, 75}, {150, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestNamedPercentileFailsLoudly(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := namedPercentile("mine_p99_ms", xs, 99); err == nil {
		t.Fatal("p99 over 999 samples: want an error")
	}
	xs = append(xs, 1000)
	got, err := namedPercentile("mine_p99_ms", xs, 99)
	if err != nil {
		t.Fatal(err)
	}
	// Nearest rank: the 990th smallest of 1..1000, leaving 10 above it.
	if got != 990 {
		t.Fatalf("p99 of 1..1000 = %g, want 990", got)
	}
}

// TestFailureAccounting checks that refused, failed and wrongly answered
// requests all count as attempted and failed.
func TestFailureAccounting(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/shed":
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"overloaded"}`, http.StatusServiceUnavailable)
		default:
			w.Write([]byte(`{"results":[]}`))
		}
	}))
	defer srv.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	refused := "http://" + l.Addr().String() + "/mine"
	l.Close()

	var cc connCounter
	c := newClient(&cc)
	var tl tally
	if !tl.observe(c.do("POST", srv.URL+"/mine", []byte(`{}`), nil)) {
		t.Fatal("a 200 answer counted as failed")
	}
	if tl.observe(c.do("POST", srv.URL+"/shed", []byte(`{}`), nil)) {
		t.Fatal("a 503 answer counted as succeeded")
	}
	if tl.observe(c.do("POST", refused, []byte(`{}`), nil)) {
		t.Fatal("a refused connection counted as succeeded")
	}
	if tl.observe(errors.New("answer differs from the in-process reference")) {
		t.Fatal("a wrong answer counted as succeeded")
	}
	if tl.attempted != 4 || tl.failed != 3 {
		t.Fatalf("attempted=%d failed=%d, want 4 and 3", tl.attempted, tl.failed)
	}
	if p := cc.peak.Load(); p != 1 {
		t.Fatalf("peak connections %d, want 1 (one keep-alive connection)", p)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int) int64 { return int64(time.Duration(n) * time.Millisecond) }
	spans := []span{
		// Request 0: server 10ms, re-executed mine 6ms under it, whose
		// core query (3ms) and resolve (1ms) are its children; the
		// resolve has a 0.5ms corpus child.
		{Name: "server", Start: 0, End: ms(10), Parent: -1, Req: 0},
		{Name: "mine", Start: ms(10), End: ms(16), Parent: 0, Req: 0},
		{Name: "core", Start: ms(16), End: ms(19), Parent: 1, Req: 0},
		{Name: "resolve", Start: ms(19), End: ms(20), Parent: 1, Req: 0},
		{Name: "corpus", Start: ms(20), End: ms(20) + ms(1)/2, Parent: 3, Req: 0},
		// Request 1: a nested child interval inside its parent.
		{Name: "server", Start: ms(30), End: ms(38), Parent: -1, Req: 1},
		{Name: "mine", Start: ms(31), End: ms(36), Parent: 5, Req: 1},
	}
	want := []time.Duration{
		4 * time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond,
		time.Millisecond / 2, time.Millisecond / 2,
		3 * time.Millisecond, 5 * time.Millisecond,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s, req %d): self %v, want %v", i, spans[i].Name, spans[i].Req, got[i], want[i])
		}
	}
	by := layerTimes(spans, true)
	if s := by["server"]; len(s) != 2 || s[0] != 4000 || s[1] != 3000 {
		t.Errorf("server self times %v us, want [4000 3000]", s)
	}
}

func TestSelfTimesIgnoresOtherRequests(t *testing.T) {
	spans := []span{
		{Name: "server", Start: 0, End: 100, Parent: -1, Req: 0},
		{Name: "mine", Start: 100, End: 160, Parent: 0, Req: 1}, // mislinked
	}
	if got := selfTimes(spans); got[0] != 100 {
		t.Fatalf("parent self %v, want 100ns: a span of another request is not a child", got[0])
	}
}

func TestGenerateDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("generates two corpora")
	}
	a, err := generate(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generate(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	da, db := t.TempDir(), t.TempDir()
	if err := a.writeFiles(da); err != nil {
		t.Fatal(err)
	}
	if err := b.writeFiles(db); err != nil {
		t.Fatal(err)
	}
	for _, name := range inputFiles {
		fa, fb := readFile(t, da, name), readFile(t, db, name)
		if string(fa) != string(fb) {
			t.Errorf("%s differs between two generations from seed 7", name)
		}
	}
	if len(a.Pool) != poolSize || len(a.Batches) != numBatches || len(a.Schedule) != 2*cycleWrites {
		t.Fatalf("pool %d, batches %d, schedule %d", len(a.Pool), len(a.Batches), len(a.Schedule))
	}
	keys := make(map[string]bool)
	for _, r := range a.Pool {
		if keys[requestKey(r)] {
			t.Fatalf("duplicate pool request %+v", r)
		}
		keys[requestKey(r)] = true
	}
	c, err := generate(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.Base[0].Text == a.Base[0].Text {
		t.Error("seeds 7 and 8 generated the same first document")
	}
}

func TestScheduleMirror(t *testing.T) {
	in := &Inputs{}
	for i := 0; i < 40; i++ {
		in.Base = append(in.Base, Doc{Text: string(rune('a' + i%26))})
	}
	for i := 0; i < 200; i++ {
		in.Stream = append(in.Stream, Doc{Text: "new"})
	}
	in.buildSchedule(3, newTestRand())
	if len(in.Schedule) != 3*cycleWrites {
		t.Fatalf("%d writes, want %d", len(in.Schedule), 3*cycleWrites)
	}
	deletes, flushes := 0, 0
	for i, op := range in.Schedule {
		if op.DueMs != i*1000/writesPerSec {
			t.Fatalf("write %d due at %dms", i, op.DueMs)
		}
		if op.Kind == "delete" {
			deletes++
		}
		if op.Flush {
			flushes++
		}
	}
	if deletes != 3*cycleWrites/deleteEvery || flushes != 3 {
		t.Fatalf("%d deletes, %d flushes", deletes, flushes)
	}
	if want := 40 + 3*(addsPerCycle-cycleWrites/deleteEvery); len(in.Final) != want {
		t.Fatalf("mirror holds %d documents, want %d", len(in.Final), want)
	}
}

func newTestRand() *rand.Rand { return rand.New(rand.NewSource(1)) }

func readFile(t *testing.T, dir, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}
