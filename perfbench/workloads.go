package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"willump"
	"willump/internal/kvstore"
	"willump/internal/ops"
	"willump/internal/pipeline"
	"willump/internal/store"
	"willump/internal/value"
)

// Workload sizes. README.md records them; changing one changes the
// benchmark, not the program.
const (
	toxicRows     = 4000 // Toxic rows across splits (test split: 1200)
	musicRows     = 8000 // Music rows across splits (test split: 2400)
	batchRows     = 1000 // offline batch and top-K query size
	toxicBatches  = 4    // distinct offline batches, sent in turn
	topkBatches   = 8    // distinct top-K batches on Music
	topK          = 16   // K of every top-K query (batch/60, as Table 4's experiment scales it)
	remoteRows    = 64   // rows per serve-remote request
	pointSequence = 4096 // length of the serve-point request sequence
	pointZipfS    = 1.1  // Zipf skew of serve-point rows over the test split
	storeLatency  = time.Millisecond
	cacheBudget   = 4096 // serve-point feature-cache entry budget
	modelName     = "music"
)

// A workload builds its pipeline and inputs from a seed, sets the pipeline
// up (optimize, save, load and, for serve workloads, deploy behind HTTP),
// and names the served call the closed-loop callers repeat.
type workload struct {
	spec    workloadSpec
	callers int
	// setups is how many times a run sets the pipeline up; datasets is how
	// many datasets it generates from its seed, which the set-ups take in
	// turn.
	setups, datasets int
	opts             []willump.Option
	serve            bool
	// precisionFloor is the top-K check's floor on the mean precision over
	// a run's set-ups, well under what every seed measures (README.md). A
	// random pick of K=16 rows from 1000 scores about 0.02.
	precisionFloor float64
	// open generates the data and any remote tables; it is not part of the
	// timed set-up.
	open func(seed int64) (*env, error)
	// reference answers one request on the reference copy of the pipeline,
	// the value every served answer must equal bit for bit.
	reference func(ctx context.Context, ref *willump.Optimized, r *request) ([]float64, error)
}

// request is one distinct served call: its inputs and the test-split rows
// they came from.
type request struct {
	inputs map[string]value.Value
	rows   []int
}

// topkQuery is one distinct top-K batch.
type topkQuery struct {
	inputs map[string]value.Value
	n      int
}

// env is a workload's generated inputs plus the resources they live in.
type env struct {
	build  func() (*pipeline.Benchmark, error) // a fresh pipeline over the same data
	labels []float64                           // test-split labels
	reqs   []request
	order  []int // send order over reqs
	topk   []topkQuery
	// served binds the remote tables for the served copy; local binds
	// in-memory copies of the same rows for the reference copy.
	served, local []willump.LoadOption
	stores        []storeColumn
	close         func()
}

// storeColumn pairs a remote table's client with the input column holding
// its keys.
type storeColumn struct {
	client *store.Client
	column string
}

var workloads = map[string]*workload{
	"offline-toxic": {
		spec:    workloadSpecs[0],
		callers: 1,
		// The cascade's share of rows answered by the small model, and so
		// rows_per_s and the latency tail, follows the dataset and the
		// plan's threshold (0.8 on most set-ups, 0.9 on about one in five);
		// eighteen of each per run average that out.
		setups:   18,
		datasets: 18,
		opts:     []willump.Option{willump.WithCascades(0), willump.WithTopK(0, 0)},
		open:     openToxic,

		precisionFloor: 0.5,
		reference:      predictBatch,
	},
	"serve-point": {
		spec:     workloadSpecs[1],
		callers:  1,
		setups:   9,
		datasets: 1,
		opts: []willump.Option{willump.WithCascades(0), willump.WithTopK(0, 0),
			willump.WithFeatureCacheBudget(cacheBudget)},
		serve: true,
		open:  openPoint,

		precisionFloor: 0.1,
		reference: func(ctx context.Context, ref *willump.Optimized, r *request) ([]float64, error) {
			p, err := ref.PredictPoint(ctx, r.inputs)
			return []float64{p}, err
		},
	},
	"serve-remote": {
		spec:     workloadSpecs[2],
		callers:  2,
		setups:   9,
		datasets: 1,
		// No cascade: a cascade that answers a batch from the small model
		// alone cancels its remaining store prefetches, the store client
		// counts each cancellation as a failure, and the breaker then serves
		// fallback features (README.md, F3). Which plans trigger it depends
		// on F1, so with cascades on the answers are wrong on some runs.
		opts:  []willump.Option{willump.WithTopK(0, 0)},
		serve: true,
		open:  openRemote,

		precisionFloor: 0.1,
		reference:      predictBatch,
	},
}

func predictBatch(ctx context.Context, o *willump.Optimized, r *request) ([]float64, error) {
	return o.PredictBatch(ctx, r.inputs)
}

func gather(d willump.Dataset, rows []int) request {
	return request{inputs: d.Gather(rows).Inputs, rows: rows}
}

// batches cuts count batches of size rows each from fresh seeded
// permutations of the test split.
func batches(rng *rand.Rand, test willump.Dataset, count, size int) []request {
	out := make([]request, count)
	for i := range out {
		out[i] = gather(test, rng.Perm(test.Len())[:size])
	}
	return out
}

func topkQueries(reqs []request) []topkQuery {
	out := make([]topkQuery, len(reqs))
	for i, r := range reqs {
		out[i] = topkQuery{inputs: r.inputs, n: len(r.rows)}
	}
	return out
}

func cyclic(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func openToxic(seed int64) (*env, error) {
	build := func() (*pipeline.Benchmark, error) {
		return pipeline.Toxic(pipeline.Config{Seed: seed, N: toxicRows})
	}
	b, err := build()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	reqs := batches(rng, b.Test, toxicBatches, batchRows)
	return &env{
		build: build, labels: b.Test.Y, reqs: reqs, order: cyclic(len(reqs)),
		topk: topkQueries(reqs), close: func() {},
	}, nil
}

func openPoint(seed int64) (*env, error) {
	build := func() (*pipeline.Benchmark, error) {
		return pipeline.Music(pipeline.Config{Seed: seed, N: musicRows})
	}
	b, err := build()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	n := b.Test.Len()
	// Zipf over a seeded permutation, so the hot rows differ by seed.
	perm := rng.Perm(n)
	z := rand.NewZipf(rng, pointZipfS, 1, uint64(n-1))
	e := &env{build: build, labels: b.Test.Y, close: func() {}}
	slot := make(map[int]int)
	for i := 0; i < pointSequence; i++ {
		row := perm[z.Uint64()]
		s, ok := slot[row]
		if !ok {
			s = len(e.reqs)
			slot[row] = s
			e.reqs = append(e.reqs, gather(b.Test, []int{row}))
		}
		e.order = append(e.order, s)
	}
	e.topk = topkQueries(batches(rng, b.Test, topkBatches, batchRows))
	return e, nil
}

// remoteBackend serves each Music table from its own in-process kvstore
// server through the production store client. Repeated pipeline builds
// reuse the same tables, so only the first build starts servers.
type remoteBackend struct {
	servers []*kvstore.Server
	clients map[string]*store.Client
	local   []willump.LoadOption
}

func (rb *remoteBackend) Table(name string, dim int, rows map[int64][]float64) (ops.Table, error) {
	if c, ok := rb.clients[name]; ok {
		return c, nil
	}
	srv := kvstore.NewServer(dim, storeLatency)
	if err := srv.Load(rows); err != nil {
		return nil, err
	}
	addr, err := srv.Start()
	if err != nil {
		return nil, err
	}
	rb.servers = append(rb.servers, srv)
	c, err := store.Dial(context.Background(), store.Config{Addr: addr, ExpectDim: dim})
	if err != nil {
		return nil, fmt.Errorf("dialing table %s: %w", name, err)
	}
	rb.clients[name] = c
	rb.local = append(rb.local, willump.WithTableBinding(name, ops.NewLocalTable(dim, rows)))
	return c, nil
}

// Close is a no-op: the tables outlive every pipeline build and are
// released once by shutdown.
func (rb *remoteBackend) Close() error { return nil }

func (rb *remoteBackend) shutdown() {
	for _, c := range rb.clients {
		c.Close()
	}
	for _, s := range rb.servers {
		s.Close()
	}
}

// musicColumns maps each Music table to the input column holding its keys.
var musicColumns = map[string]string{
	"users": "user", "songs": "song", "genres": "genre", "artists": "artist", "contexts": "context",
}

func openRemote(seed int64) (*env, error) {
	rb := &remoteBackend{clients: make(map[string]*store.Client)}
	build := func() (*pipeline.Benchmark, error) {
		return pipeline.Music(pipeline.Config{Seed: seed, N: musicRows, Backend: rb})
	}
	b, err := build()
	if err != nil {
		rb.shutdown()
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(b.Test.Len())
	e := &env{build: build, labels: b.Test.Y, local: rb.local, close: rb.shutdown}
	for lo := 0; lo+remoteRows <= len(perm); lo += remoteRows {
		e.reqs = append(e.reqs, gather(b.Test, perm[lo:lo+remoteRows]))
	}
	e.order = cyclic(len(e.reqs))
	e.topk = topkQueries(batches(rng, b.Test, topkBatches, batchRows))
	for name, c := range rb.clients {
		e.served = append(e.served, willump.WithTableBinding(name, c))
		e.stores = append(e.stores, storeColumn{c, musicColumns[name]})
	}
	return e, nil
}
