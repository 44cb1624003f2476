package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"phrasemine"
	"phrasemine/internal/server"
)

// answerLog keeps the first HTTP answer to every distinct request and
// checks each later answer, cached or not, against it. After the timed
// window the first answers are checked against the in-process reference,
// so every answer is compared with the reference while the reference work
// stays out of the window and is spent only on requests that were sent.
// Requests are told apart with their keywords in the order sent: the
// server's cache treats keyword order as irrelevant, so an answer cached
// for one order and served for another must still equal the uncached
// answer to the request as sent.
type answerLog struct {
	mu   sync.Mutex
	seen map[string]*seenAnswer
}

type seenAnswer struct {
	req     Request
	results []server.MineResult
	n       int64 // answers received
}

func newAnswerLog() *answerLog { return &answerLog{seen: make(map[string]*seenAnswer)} }

// record logs one answer and fails when it differs from the first answer
// to the same request.
func (a *answerLog) record(req Request, got []server.MineResult, cached bool) error {
	key := fmt.Sprintf("%q|%s|%d|%g", req.Keywords, req.Op, req.K, req.Fraction)
	a.mu.Lock()
	defer a.mu.Unlock()
	s, ok := a.seen[key]
	if !ok {
		a.seen[key] = &seenAnswer{req: req, results: got, n: 1}
		return nil
	}
	s.n++
	if !sameAnswer(got, s.results) {
		return fmt.Errorf("%+v (cached=%t): answer differs from an earlier answer to the same request", req, cached)
	}
	return nil
}

// verify compares the first answer to every logged request with ref and
// returns the number of answers to requests whose answer was wrong.
func (a *answerLog) verify(ref func(Request) ([]phrasemine.Result, error)) (wrong int64, first error) {
	keys := make([]string, 0, len(a.seen))
	for k := range a.seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s := a.seen[k]
		want, err := ref(s.req)
		if err == nil && !sameAnswer(s.results, toMineResults(want)) {
			err = fmt.Errorf("%+v: answer differs from the in-process reference", s.req)
		}
		if err != nil {
			wrong += s.n
			if first == nil {
				first = err
			}
		}
	}
	return wrong, first
}

// sameAnswer compares two answers on phrases and float64 score bits.
func sameAnswer(got, want []server.MineResult) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Phrase != want[i].Phrase || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			return false
		}
	}
	return true
}

func toMineResults(rs []phrasemine.Result) []server.MineResult {
	out := make([]server.MineResult, len(rs))
	for i, r := range rs {
		out[i] = server.MineResult{Phrase: r.Phrase, Score: r.Score, Interestingness: r.Interestingness}
	}
	return out
}

func parseOp(op string) phrasemine.Operator {
	if op == "AND" {
		return phrasemine.AND
	}
	return phrasemine.OR
}

func mineRef(m *phrasemine.Miner, q Request, algo phrasemine.Algorithm) ([]phrasemine.Result, error) {
	mined, err := m.MineDetailed(context.Background(), q.Keywords, parseOp(q.Op),
		phrasemine.QueryOptions{K: q.K, ListFraction: q.Fraction, Algorithm: algo})
	return mined.Results, err
}

// checkReads checks a read workload's logged answers. The reference is
// LoadMinerFile of the monolithic snapshot. Sharded answers at full lists
// must be bit-identical to its SMJ answer (the sharded engine's contract);
// at fraction < 1 the sharded engine truncates each segment's lists rather
// than the global ones, a documented approximation, so those answers are
// compared with the same manifest opened in-process instead.
func (r *runner) checkReads(log *answerLog) (wrong int64, err error) {
	mono, err := phrasemine.LoadMinerFile(r.file("base.snap"), 0)
	if err != nil {
		return 0, err
	}
	defer mono.Close()
	var sharded *phrasemine.Miner
	if r.w.sharded {
		if sharded, err = phrasemine.OpenShardedMiner(r.file("manifest"), 0); err != nil {
			return 0, err
		}
		defer sharded.Close()
	}
	wrong, first := log.verify(func(q Request) ([]phrasemine.Result, error) {
		switch {
		case sharded == nil:
			return mineRef(mono, q, phrasemine.AlgoAuto)
		case q.Fraction >= 1:
			return mineRef(mono, q, phrasemine.AlgoSMJ)
		default:
			return mineRef(sharded, q, phrasemine.AlgoAuto)
		}
	})
	reportErr("reference check", first)
	return wrong, nil
}

// checkAfterCompaction compares a sample of answers after ingest-mono's
// final flush with a cold in-process build over the surviving documents,
// which the generator tracked with its mirror of the document list.
func (r *runner) checkAfterCompaction() (tally, error) {
	var t tally
	n := min(ingestCheckSample, len(r.in.Pool))
	got := make([]server.MineResponse, n)
	errs := make([]error, n)
	bodies, err := marshalAll(r.in.Pool[:n])
	if err != nil {
		return t, err
	}
	for i := range got {
		errs[i] = r.clients[0].do("POST", "http://"+r.srv.addr+"/mine", bodies[i], &got[i])
	}
	cfg := phrasemine.DefaultConfig()
	cfg.MinDocFreq = minDocFreq
	cold, err := phrasemine.NewMinerFromDocuments(publicDocs(r.in.Final), cfg)
	if err != nil {
		return t, fmt.Errorf("cold build: %w", err)
	}
	defer cold.Close()
	for i := range got {
		err := errs[i]
		if err == nil {
			var want []phrasemine.Result
			if want, err = mineRef(cold, r.in.Pool[i], phrasemine.AlgoAuto); err == nil && !sameAnswer(got[i].Results, toMineResults(want)) {
				err = fmt.Errorf("%+v after the final flush differs from a cold build", r.in.Pool[i])
			}
		}
		t.observe(err)
	}
	reportErr("post-compaction check", t.firstErr)
	return t, nil
}
