package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"willump"
)

// A run sets the pipeline up workload.setups times; setup_s is the median.
// Optimize picks its plan from wall-clock profiling, so plans differ
// between set-ups of the same data; every set-up stays deployed and the
// timed calls visit them in turn, so each metric averages over the plans
// instead of following one draw. A workload with more than one dataset
// (workload.datasets) spreads the set-ups over them the same way.

// dataSeed is the seed of dataset i of n in a run with the given seed. A
// workload with one dataset uses the run's seed.
func dataSeed(seed int64, i, n int) int64 {
	if n == 1 {
		return seed
	}
	return seed*int64(n) + int64(i)
}

// Each run slices its measured time into rounds; every round spends these
// shares on the served call, the full model and top-K queries, so slow
// drift on the machine touches all three alike.
const (
	rounds     = 20
	servedFrac = 0.6
	fullFrac   = 0.2
)

type setupTimes struct {
	optimize, save, load, deploy time.Duration
}

func (t setupTimes) total() time.Duration { return t.optimize + t.save + t.load + t.deploy }

// deployment is one set-up of a workload's pipeline, with its inputs and
// the answers it must give.
type deployment struct {
	env   *env
	o     *willump.Optimized
	art   []byte
	reg   *willump.Registry
	srv   *willump.Server
	cli   *willump.Client
	times setupTimes

	// ref is a second copy loaded from the same artifact, bound to local
	// tables; every answer the deployment gives must equal ref's.
	ref        *willump.Optimized
	want, full [][]float64 // per distinct request
	topk       [][]int     // per top-K batch
	acc, prec  float64     // accuracy over the distinct rows, mean top-K precision
	checkErr   error       // first failed check while preparing
}

func (d *deployment) close() {
	if d.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		d.srv.Shutdown(ctx) //nolint:errcheck // teardown; nothing is in flight
	}
}

// setup optimizes a fresh pipeline over e's data, saves and reloads it, and
// for serve workloads deploys it behind an HTTP server.
func setup(ctx context.Context, w *workload, e *env) (*deployment, error) {
	d := &deployment{env: e}
	b, err := e.build()
	if err != nil {
		return d, err
	}
	t0 := time.Now()
	o, _, err := willump.Optimize(ctx, b.Pipeline, b.Train, b.Valid, w.opts...)
	if err != nil {
		return d, fmt.Errorf("optimize: %w", err)
	}
	t1 := time.Now()
	var buf bytes.Buffer
	if err := willump.Save(o, &buf); err != nil {
		return d, fmt.Errorf("save: %w", err)
	}
	t2 := time.Now()
	d.o, err = willump.Load(bytes.NewReader(buf.Bytes()), e.served...)
	if err != nil {
		return d, fmt.Errorf("load: %w", err)
	}
	t3 := time.Now()
	d.art = buf.Bytes()
	d.times = setupTimes{optimize: t1.Sub(t0), save: t2.Sub(t1), load: t3.Sub(t2)}
	if !w.serve {
		return d, nil
	}
	d.reg = willump.NewRegistry()
	if err := d.reg.Deploy(modelName, "v1", d.o); err != nil {
		return d, fmt.Errorf("deploy: %w", err)
	}
	d.srv = willump.ServeRegistry(d.reg)
	url, err := d.srv.Start()
	if err != nil {
		return d, fmt.Errorf("server start: %w", err)
	}
	d.times.deploy = time.Since(t3)
	d.cli = willump.NewClient(url)
	return d, nil
}

// prepare loads the deployment's reference copy, computes every answer the
// deployment must give, and runs the checks that hold per distinct request:
// the cascade property, no significant accuracy loss against the full model
// on the same rows, and well-formed top-K answers. It also scores the plan:
// accuracy against the labels and top-K precision against an exact top-K
// the benchmark ranks from full-model scores.
func prepare(ctx context.Context, w *workload, d *deployment) error {
	e := d.env
	var err error
	if d.ref, err = willump.Load(bytes.NewReader(d.art), e.local...); err != nil {
		return fmt.Errorf("reference load: %w", err)
	}
	ref := d.ref
	check := func(err error) {
		if err != nil && d.checkErr == nil {
			d.checkErr = err
		}
	}
	var cascOK, fullOK []bool
	for i := range e.reqs {
		r := &e.reqs[i]
		want, err := w.reference(ctx, ref, r)
		if err != nil {
			return fmt.Errorf("reference answer: %w", err)
		}
		full, err := ref.PredictFull(ctx, r.inputs)
		if err != nil {
			return fmt.Errorf("full-model answer: %w", err)
		}
		if ref.Cascade == nil {
			check(checkEqual(want, full))
		} else {
			small, err := ref.Approx.SmallOnlyPredict(ctx, r.inputs)
			if err != nil {
				return fmt.Errorf("small-model answer: %w", err)
			}
			check(checkCascade(want, small, full, ref.Cascade.Threshold))
		}
		labels := make([]float64, len(r.rows))
		for j, row := range r.rows {
			labels[j] = e.labels[row]
		}
		cascOK = append(cascOK, correctRows(want, labels)...)
		fullOK = append(fullOK, correctRows(full, labels)...)
		d.want, d.full = append(d.want, want), append(d.full, full)
	}
	check(checkNoSignificantLoss(cascOK, fullOK))
	d.acc = share(cascOK)
	for _, q := range e.topk {
		scores, err := ref.PredictFull(ctx, q.inputs)
		if err != nil {
			return fmt.Errorf("exact top-K scores: %w", err)
		}
		idx, err := ref.TopK(ctx, q.inputs, topK)
		if err != nil {
			return fmt.Errorf("reference top-K: %w", err)
		}
		check(checkTopK(idx, topK, q.n))
		d.topk = append(d.topk, idx)
		d.prec += precision(idx, scores, kthScore(scores, topK)) / float64(len(e.topk))
	}
	return nil
}

// phase accumulates one kind of call across rounds.
type phase struct {
	calls, failed, rows int
	lats                []float64 // served phase only: microseconds per call
	rowRates, callRates []float64 // per round, as measured
	timed               bool      // keep per-call latencies
	checkErr            error     // first wrong answer
	firstErr            error     // first failed operation
}

// call performs one operation for sequence number seq. It returns the rows
// it covered and a check run outside the timed region.
type call func(ctx context.Context, seq int) (rows int, check func() error, err error)

// runRound runs callers closed-loop callers for d and folds the round
// into p.
func runRound(ctx context.Context, callers int, d time.Duration, next *atomic.Int64, fn call, p *phase) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	calls, rows := 0, 0
	start := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				seq := int(next.Add(1) - 1)
				t0 := time.Now()
				n, check, err := fn(ctx, seq)
				lat := time.Since(t0)
				mu.Lock()
				calls++
				p.calls++
				if err != nil {
					p.failed++
					if p.firstErr == nil {
						p.firstErr = err
					}
				} else {
					rows += n
					p.rows += n
					if p.timed {
						p.lats = append(p.lats, float64(lat.Nanoseconds())/1e3)
					}
					if cerr := check(); cerr != nil && p.checkErr == nil {
						p.checkErr = cerr
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	el := time.Since(start).Seconds()
	p.rowRates = append(p.rowRates, float64(rows)/el)
	p.callRates = append(p.callRates, float64(calls)/el)
}

// Calls visit the set-ups in turn, so every dataset and plan carries the
// same weight; within a set-up they follow its request order (n returns
// the length of that order).
func pick(deps []*deployment, seq int, n func(*env) int) (*deployment, int) {
	d := deps[seq%len(deps)]
	return d, (seq / len(deps)) % n(d.env)
}

// firstPerDataset returns the first set-up of each dataset.
func firstPerDataset(deps []*deployment) []*deployment {
	seen := map[*env]bool{}
	var out []*deployment
	for _, d := range deps {
		if !seen[d.env] {
			seen[d.env] = true
			out = append(out, d)
		}
	}
	return out
}

func orderLen(e *env) int { return len(e.order) }
func topkLen(e *env) int  { return len(e.topk) }

// serve sends request r to set-up d the way the workload serves it: in
// process for the offline workload, over HTTP otherwise.
func serve(ctx context.Context, w *workload, d *deployment, r *request) ([]float64, error) {
	if w.serve {
		return d.cli.PredictModel(ctx, modelName, r.inputs)
	}
	return d.o.PredictBatch(ctx, r.inputs)
}

func servedCall(w *workload, deps []*deployment) call {
	return func(ctx context.Context, seq int) (int, func() error, error) {
		d, i := pick(deps, seq, orderLen)
		e := d.env
		r := e.order[i]
		out, err := serve(ctx, w, d, &e.reqs[r])
		return len(e.reqs[r].rows), func() error { return checkEqual(out, d.want[r]) }, err
	}
}

func fullCall(deps []*deployment) call {
	return func(ctx context.Context, seq int) (int, func() error, error) {
		d, i := pick(deps, seq, orderLen)
		e := d.env
		r := e.order[i]
		out, err := d.o.PredictFull(ctx, e.reqs[r].inputs)
		return len(e.reqs[r].rows), func() error { return checkEqual(out, d.full[r]) }, err
	}
}

func topkCall(deps []*deployment) call {
	return func(ctx context.Context, seq int) (int, func() error, error) {
		d, q := pick(deps, seq, topkLen)
		e := d.env
		idx, err := d.o.TopK(ctx, e.topk[q].inputs, topK)
		return e.topk[q].n, func() error {
			if err := checkTopK(idx, topK, e.topk[q].n); err != nil {
				return err
			}
			return checkSameIndices(idx, d.topk[q])
		}, err
	}
}

// measured is what the timed rounds produced. Only the served phase keeps
// per-call latencies: at a few microseconds per in-process call, the other
// phases' samples would outweigh the program's own heap.
type measured struct {
	served, full, topk phase
	lat                latency   // of the served calls, at nominal speed
	speeds             []float64 // the machine's speed before each phase of each round
	speed              float64   // their median
	// counters accumulated over the served rounds of a traced run
	counts counts
}

func (m *measured) phases() []*phase { return []*phase{&m.served, &m.full, &m.topk} }

// counts are the process- and pipeline-level counters a traced run
// differences around its served rounds.
type counts struct {
	mallocs                                  uint64
	cacheHits, cacheMisses                   int64
	storeRequests, storeHedges, storeRetries int64
}

// snapshot reads the counters. Each set-up has its own feature caches; a
// dataset's remote tables are shared by its set-ups, so store counters
// come from one set-up per dataset.
func snapshot(deps []*deployment) counts {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c := counts{mallocs: ms.Mallocs}
	for _, d := range deps {
		cs, _ := d.o.FeatureCacheStats()
		c.cacheHits += cs.Hits
		c.cacheMisses += cs.Misses
	}
	for _, d := range firstPerDataset(deps) {
		ss, _ := d.o.FeatureStoreStats()
		c.storeRequests += ss.Requests
		c.storeHedges += ss.HedgesIssued
		c.storeRetries += ss.Retries
	}
	return c
}

// add folds the change from before to after into c.
func (c *counts) add(before, after counts) {
	c.mallocs += after.mallocs - before.mallocs
	c.cacheHits += after.cacheHits - before.cacheHits
	c.cacheMisses += after.cacheMisses - before.cacheMisses
	c.storeRequests += after.storeRequests - before.storeRequests
	c.storeHedges += after.storeHedges - before.storeHedges
	c.storeRetries += after.storeRetries - before.storeRetries
}

// measure warms every set-up with each distinct request and top-K batch,
// then runs the timed rounds. Each phase of each round is preceded by a
// run of the reference kernel k; the median of those runs is the speed the
// run's timings are scaled by. One kernel run is too short to read one
// round by (it varies ±15% between consecutive rounds), but the median of
// sixty follows the drift from run to run.
func measure(ctx context.Context, w *workload, deps []*deployment, k *kernelProc, seconds int, traced bool) (*measured, error) {
	for _, d := range deps {
		e := d.env
		for r := range e.reqs {
			if _, err := serve(ctx, w, d, &e.reqs[r]); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		for _, q := range e.topk {
			if _, err := d.o.TopK(ctx, q.inputs, topK); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	srv, full, topk := servedCall(w, deps), fullCall(deps), topkCall(deps)
	m := &measured{served: phase{timed: true}}
	round := time.Duration(seconds) * time.Second / rounds
	var nServed, nFull, nTopk atomic.Int64
	for i := 0; i < rounds; i++ {
		var before counts
		if traced {
			before = snapshot(deps)
		}
		if err := m.readSpeed(k); err != nil {
			return nil, err
		}
		runRound(ctx, w.callers, time.Duration(servedFrac*float64(round)), &nServed, srv, &m.served)
		if traced {
			m.counts.add(before, snapshot(deps))
		}
		if err := m.readSpeed(k); err != nil {
			return nil, err
		}
		runRound(ctx, w.callers, time.Duration(fullFrac*float64(round)), &nFull, full, &m.full)
		if err := m.readSpeed(k); err != nil {
			return nil, err
		}
		runRound(ctx, w.callers, round-time.Duration((servedFrac+fullFrac)*float64(round)), &nTopk, topk, &m.topk)
	}
	m.speed = median(m.speeds)
	return m, nil
}

func (m *measured) readSpeed(k *kernelProc) error {
	s, err := k.speed()
	m.speeds = append(m.speeds, s)
	return err
}

// latency summarizes the served calls' latencies, in microseconds.
type latency struct {
	n                         int
	p50, p90, p99, p999, mean float64
}

// summarize fills m.lat and releases the samples, so that the live heap
// measured next is the program's and not the benchmark's.
func (m *measured) summarize() {
	l, s := m.served.lats, m.speed
	m.lat = latency{len(l), quantile(l, 0.5) * s, quantile(l, 0.9) * s, quantile(l, 0.99) * s, quantile(l, 0.999) * s, mean(l) * s}
	m.served.lats = nil
}

// nominal is the median over rounds of a per-round rate, at nominal speed.
func (m *measured) nominal(rates []float64) float64 { return median(rates) / m.speed }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank quantile of xs (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func mib(b uint64) float64 { return float64(b) / (1 << 20) }

// liveHeapMiB is the heap in use after a forced collection.
func liveHeapMiB() float64 {
	// Two collections: the first moves pooled objects to the victim cache,
	// the second frees them.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return mib(ms.HeapAlloc)
}
