package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"phrasemine"
	"phrasemine/internal/corpus"
	"phrasemine/internal/synth"
	"phrasemine/internal/textproc"
)

// Generated-input sizes. The pool is four times the server's default
// 1,024-entry result cache, so the cache can hold the Zipf head but not the
// pool.
const (
	corpusScale   = 0.1 // synth.ReutersLike().Scale(0.1): 2,157 documents
	minDocFreq    = 3
	poolSize      = 4096
	zipfS         = 1.1
	batchKeysets  = 2 // keyword sets per /mine/batch request
	numBatches    = 2048
	writesPerSec  = 5
	cycleWrites   = 32 // POST /flush after every cycleWrites writes
	deleteEvery   = 8  // every deleteEvery-th write is a DELETE
	addsPerCycle  = cycleWrites - cycleWrites/deleteEvery
	streamMinDocs = 1000 // documents for the traced Add loop
)

var (
	ks        = []int{5, 10, 20}
	fractions = []float64{0.2, 1.0} // under AlgoAuto: 0.2 -> SMJ, 1.0 -> NRA
	// batchVariants are the op/k variants every batch keyword set is asked
	// with; the shared-scan executor decodes each keyword list once for all.
	batchVariants = []struct {
		op string
		k  int
	}{{"OR", 5}, {"OR", 20}, {"AND", 5}, {"AND", 20}}
)

// Doc is one generated document, in the form the server receives it.
type Doc struct {
	Text   string            `json:"text"`
	Facets map[string]string `json:"facets,omitempty"`
}

// Request is one /mine request body.
type Request struct {
	Keywords []string `json:"keywords"`
	Op       string   `json:"op"`
	K        int      `json:"k"`
	Fraction float64  `json:"fraction"`
}

// WriteOp is one entry of the ingest schedule. Writes are due every
// 1/writesPerSec seconds; Flush marks the write after which the same
// connection sends POST /flush.
type WriteOp struct {
	DueMs  int    `json:"due_ms"`
	Kind   string `json:"kind"` // "add" or "delete"
	Doc    int    `json:"doc,omitempty"`
	Delete int    `json:"delete,omitempty"`
	Flush  bool   `json:"flush,omitempty"`
}

// Inputs is everything a run sends, generated from one seed.
type Inputs struct {
	Seed     int64
	Base     []Doc       // the indexed corpus
	Stream   []Doc       // documents POSTed by the ingest schedule
	Pool     []Request   // distinct cacheable /mine requests
	Batches  [][]Request // /mine/batch compositions
	Schedule []WriteOp   // write/delete/flush schedule, whole cycles
	// Final is the document list after the whole schedule is flushed:
	// the generator's mirror of the server's corpus.
	Final []Doc
	// Keywords are the distinct pool keywords, warmed once per fraction.
	Keywords []string
}

// generate builds the inputs for seed. cycles is the number of 32-write
// ingest cycles to schedule.
func generate(seed int64, cycles int) (*Inputs, error) {
	cfg := synth.ReutersLike().Scale(corpusScale)
	cfg.Seed = 21578 + seed
	base, err := cfg.Generate()
	if err != nil {
		return nil, fmt.Errorf("generating corpus: %w", err)
	}
	scfg := cfg
	scfg.Seed = cfg.Seed + 1_000_003
	scfg.NumDocs = max(addsPerCycle*cycles, streamMinDocs)
	stream, err := scfg.Generate()
	if err != nil {
		return nil, fmt.Errorf("generating document stream: %w", err)
	}
	in := &Inputs{Seed: seed, Base: renderCorpus(base), Stream: renderCorpus(stream)}

	tokens := make([][]string, base.Len())
	for i := range tokens {
		tokens[i] = base.MustDoc(corpus.DocID(i)).Tokens
	}
	phrases, err := textproc.Extract(tokens, textproc.ExtractorOptions{
		MinDocFreq: minDocFreq, DropAllStopwordPhrases: true,
	})
	if err != nil {
		return nil, fmt.Errorf("extracting phrases: %w", err)
	}
	if err := in.buildPool(phrases); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	in.buildBatches(rng)
	in.buildSchedule(cycles, rng)
	return in, nil
}

// renderCorpus turns generated token streams back into document lines the
// tokenizer reads identically (sentence breaks become periods).
func renderCorpus(c *corpus.Corpus) []Doc {
	docs := make([]Doc, c.Len())
	for i := range docs {
		d := c.MustDoc(corpus.DocID(i))
		var b strings.Builder
		for j, t := range d.Tokens {
			if t == textproc.SentenceBreak {
				b.WriteString(".")
				continue
			}
			if j > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(t)
		}
		docs[i] = Doc{Text: b.String(), Facets: d.Facets}
	}
	return docs
}

// buildPool makes poolSize distinct requests. Each takes the content
// words of one indexed 2-4-word phrase as its keywords, plus an op, a k and
// a list fraction. Ranks follow phrase popularity (document frequency), and
// the op/k/fraction combinations rotate with the rank, so that the Zipf
// head — which carries most of the traffic — has the same shape whatever
// the seed, and only the corpus behind it changes.
func (in *Inputs) buildPool(phrases []textproc.PhraseStats) error {
	type cand struct {
		kws []string
		df  int
		p   string
	}
	var cands []cand
	for _, p := range phrases {
		if p.Words < 2 || p.Words > 4 {
			continue
		}
		var kws []string
		for _, w := range textproc.SplitPhrase(p.Phrase) {
			if !textproc.IsStopword(w) && !contains(kws, w) {
				kws = append(kws, w)
			}
		}
		if len(kws) > 0 {
			cands = append(cands, cand{kws, p.DocFreq, p.Phrase})
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].df != cands[b].df {
			return cands[a].df > cands[b].df
		}
		return cands[a].p < cands[b].p
	})
	var combos []Request
	for _, f := range fractions {
		for _, op := range []string{"OR", "AND"} {
			for _, k := range ks {
				combos = append(combos, Request{Op: op, K: k, Fraction: f})
			}
		}
	}
	seen := make(map[string]bool)
	words := make(map[string]bool)
	for _, c := range cands {
		if len(in.Pool) == poolSize {
			break
		}
		r := combos[len(in.Pool)%len(combos)]
		r.Keywords = c.kws
		if key := requestKey(r); !seen[key] {
			seen[key] = true
			in.Pool = append(in.Pool, r)
			for _, w := range c.kws {
				words[w] = true
			}
		}
	}
	if len(in.Pool) < poolSize {
		return fmt.Errorf("only %d distinct requests from %d phrases", len(in.Pool), len(cands))
	}
	for w := range words {
		in.Keywords = append(in.Keywords, w)
	}
	sort.Strings(in.Keywords)
	return nil
}

// requestKey identifies a request the way the server's cache does: the
// sorted keyword set plus op, k and fraction.
func requestKey(r Request) string {
	kws := append([]string(nil), r.Keywords...)
	sort.Strings(kws)
	return fmt.Sprintf("%s|%s|%d|%g", strings.Join(kws, ","), r.Op, r.K, r.Fraction)
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// buildBatches composes the /mine/batch requests: batchKeysets Zipf-drawn
// keyword sets, each asked with every batch variant at its own fraction.
func (in *Inputs) buildBatches(rng *rand.Rand) {
	z := newZipf(rng, len(in.Pool))
	in.Batches = make([][]Request, numBatches)
	for i := range in.Batches {
		for j := 0; j < batchKeysets; j++ {
			src := in.Pool[z.Uint64()]
			for _, v := range batchVariants {
				in.Batches[i] = append(in.Batches[i],
					Request{Keywords: src.Keywords, Op: v.op, K: v.k, Fraction: src.Fraction})
			}
		}
	}
}

// buildSchedule lays out cycles of cycleWrites writes at writesPerSec:
// every deleteEvery-th write deletes a distinct document of the cycle's
// base, the rest add the next stream document, and the last write of a
// cycle is followed by a flush. It keeps a mirror of the document list.
func (in *Inputs) buildSchedule(cycles int, rng *rand.Rand) {
	docs := append([]Doc(nil), in.Base...)
	next := 0
	for c := 0; c < cycles; c++ {
		removed := make(map[int]bool)
		var added []Doc
		for w := 0; w < cycleWrites; w++ {
			g := c*cycleWrites + w
			op := WriteOp{DueMs: g * 1000 / writesPerSec, Flush: w == cycleWrites-1}
			if (w+1)%deleteEvery == 0 {
				id := rng.Intn(len(docs))
				for removed[id] {
					id = rng.Intn(len(docs))
				}
				removed[id] = true
				op.Kind, op.Delete = "delete", id
			} else {
				op.Kind, op.Doc = "add", next
				added = append(added, in.Stream[next])
				next++
			}
			in.Schedule = append(in.Schedule, op)
		}
		kept := docs[:0:0]
		for i, d := range docs {
			if !removed[i] {
				kept = append(kept, d)
			}
		}
		docs = append(kept, added...)
	}
	in.Final = docs
}

// inputFiles are the files writeFiles writes.
var inputFiles = []string{"corpus.txt", "pool.json", "batches.json", "schedule.json", "stream.json"}

// writeFiles writes the inputs the program and the load generator read:
// the corpus file, the request pool, the batch compositions, the write
// schedule and the documents it posts.
func (in *Inputs) writeFiles(dir string) error {
	f, err := os.Create(filepath.Join(dir, "corpus.txt"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, d := range in.Base {
		w.WriteString(docLine(d))
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	for name, v := range map[string]any{
		"pool.json": in.Pool, "batches.json": in.Batches,
		"schedule.json": in.Schedule, "stream.json": in.Stream,
	} {
		data, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// docLine renders a document as a corpus-file line: an optional sorted
// "name=value ..." facet header, a tab, then the text.
func docLine(d Doc) string {
	if len(d.Facets) == 0 {
		return d.Text
	}
	names := make([]string, 0, len(d.Facets))
	for k := range d.Facets {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, k := range names {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(k + "=" + d.Facets[k])
	}
	return b.String() + "\t" + d.Text
}

// publicDocs converts generated documents for the library API.
func publicDocs(docs []Doc) []phrasemine.Document {
	out := make([]phrasemine.Document, len(docs))
	for i, d := range docs {
		out[i] = phrasemine.Document{Text: d.Text, Facets: d.Facets}
	}
	return out
}

func newZipf(rng *rand.Rand, n int) *rand.Zipf {
	return rand.NewZipf(rng, zipfS, 1, uint64(n-1))
}

// stream is a shared, deterministic Zipf-by-rank sequence of pool indexes:
// every client drawing from one stream replays the same sequence, whatever
// the interleaving.
type stream struct {
	mu sync.Mutex
	z  *rand.Zipf
}

func newStream(seed int64, n int) *stream {
	return &stream{z: newZipf(rand.New(rand.NewSource(seed^0x5eed)), n)}
}

func (s *stream) next() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int(s.z.Uint64())
}
