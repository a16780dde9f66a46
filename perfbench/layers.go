package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"willump"
	"willump/internal/graph"
	"willump/internal/value"
)

// layerBudget bounds each per-layer timing loop; every loop also runs at
// least layerMinReps times.
const (
	layerBudget  = 300 * time.Millisecond
	layerMinReps = 5
)

// timeMedian runs f until it has run layerMinReps times and layerBudget
// has passed, and returns the median call time in nanoseconds.
func timeMedian(f func() error) (float64, error) {
	var ns []float64
	start := time.Now()
	for len(ns) < layerMinReps || time.Since(start) < layerBudget {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ns = append(ns, float64(time.Since(t0).Nanoseconds()))
	}
	return median(ns), nil
}

// mallocs counts heap allocations made by f.
func mallocs(f func() error) (uint64, error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	err := f()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, err
}

// concurrentMean runs callers closed-loop callers through the request
// sequence for layerBudget and returns the mean and median call time in
// microseconds.
func concurrentMean(e *env, callers int, f func(r *request) error) (meanUs, p50Us float64, err error) {
	var mu sync.Mutex
	var lats []float64
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < layerBudget {
				r := &e.reqs[e.order[int(next.Add(1)-1)%len(e.order)]]
				t0 := time.Now()
				cerr := f(r)
				lat := float64(time.Since(t0).Nanoseconds()) / 1e3
				mu.Lock()
				if cerr != nil && err == nil {
					err = cerr
				}
				lats = append(lats, lat)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return mean(lats), median(lats), err
}

// layers is the traced run's per-layer report. Every timing calls one
// module's exported entry point from here, on the workload's own inputs,
// after the timed rounds; the program itself is not instrumented. Layer
// timings and the plan come from the last set-up; metrics of layers a
// workload does not use read 0.
func layers(ctx context.Context, w *workload, deps []*deployment, m *measured) (map[string]float64, error) {
	d := deps[len(deps)-1]
	e, o, ref := d.env, d.o, d.ref
	out := make(map[string]float64, len(perLayer))
	for _, s := range perLayer {
		out[s.Name] = 0
	}
	var opt, save, load, deploy []float64
	for _, dd := range deps {
		opt = append(opt, dd.times.optimize.Seconds())
		save = append(save, dd.times.save.Seconds())
		load = append(load, dd.times.load.Seconds())
		deploy = append(deploy, dd.times.deploy.Seconds())
	}
	out["core.optimize_s"] = median(opt)
	out["artifact.save_s"] = median(save)
	out["artifact.load_s"] = median(load)
	out["serving.deploy_s"] = median(deploy)
	out["artifact.kib"] = float64(len(d.art)) / 1024
	out["traced.rows_per_s"] = m.nominal(m.served.rowRates)
	out["traced.p50_us"] = m.lat.p50
	out["traced.mean_us"] = m.lat.mean
	out["machine.speed"] = median(m.speeds)

	// Plan.
	if o.Cascade != nil {
		out["core.plan.threshold"] = math.Min(o.Cascade.Threshold, 1)
	} else {
		out["core.plan.threshold"] = 1 // every row goes to the full model
	}
	if o.Approx != nil {
		for _, i := range o.Approx.Efficient {
			out["core.plan.small_ifvs"] += float64(int(1) << i)
		}
	}
	for _, s := range o.Prog.CacheSpecs() {
		name := fmt.Sprintf("cache.capacity.%d", s.IFV)
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("pipeline has IFV %d; the benchmark reports %d", s.IFV, maxIFVs)
		}
		out[name] = float64(s.Capacity)
	}

	// Operators, one node at a time in topological order, on the layer
	// batch (the first top-K batch).
	batch := e.topk[0].inputs
	rows := float64(e.topk[0].n)
	g := o.Prog.G
	vals := make(map[graph.NodeID]value.Value)
	for _, id := range g.Topo() {
		n := g.Node(id)
		if n.IsSource() {
			vals[id] = batch[n.Label]
			continue
		}
		ins := make([]value.Value, len(n.Inputs))
		for i, in := range n.Inputs {
			ins[i] = vals[in]
		}
		var v value.Value
		t, err := timeMedian(func() (err error) { v, err = n.Op.Apply(ins); return err })
		if err != nil {
			return nil, fmt.Errorf("op %s: %w", n.Label, err)
		}
		vals[id] = v
		name := "ops." + n.Label + ".ns_per_row"
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("pipeline node %q is not among the benchmark's operator metrics", n.Label)
		}
		out[name] = t / rows
	}

	// Weld features and the full model on precomputed features.
	t, err := timeMedian(func() error { _, err := o.Features(ctx, batch); return err })
	if err != nil {
		return nil, err
	}
	out["weld.features_ns_per_row"] = t / rows
	a, err := mallocs(func() error { _, err := o.Features(ctx, batch); return err })
	if err != nil {
		return nil, err
	}
	out["weld.allocs_per_row"] = float64(a) / rows
	feats, err := o.Features(ctx, batch)
	if err != nil {
		return nil, err
	}
	if out["model.full_ns_per_row"], err = timeMedian(func() error { o.Model.Predict(feats); return nil }); err != nil {
		return nil, err
	}
	out["model.full_ns_per_row"] /= rows

	// Cascade stages on the layer batch: the small model over every row,
	// then the full pipeline over the rows it is not confident about.
	if o.Approx != nil {
		var small []float64
		t, err := timeMedian(func() (err error) { small, err = o.Approx.SmallOnlyPredict(ctx, batch); return err })
		if err != nil {
			return nil, err
		}
		out["cascade.small_ns_per_row"] = t / rows
		if o.Cascade != nil {
			var hard []int
			for i, p := range small {
				if confidence(p) <= o.Cascade.Threshold {
					hard = append(hard, i)
				}
			}
			if len(hard) > 0 {
				sub := make(map[string]value.Value, len(batch))
				for k, v := range batch {
					sub[k] = v.Gather(hard)
				}
				t, err := timeMedian(func() error { _, err := o.PredictFull(ctx, sub); return err })
				if err != nil {
					return nil, err
				}
				out["cascade.resume_ns_per_row"] = t / rows
			}
		}
	}
	var small, total int
	for _, i := range e.order {
		_, st, err := ref.PredictBatchOptions(ctx, e.reqs[i].inputs, willump.PredictOptions{})
		if err != nil {
			return nil, err
		}
		small += st.SmallOnly
		total += len(e.reqs[i].rows)
	}
	out["cascade.small_only_frac"] = float64(small) / float64(total)

	// Top-K filter.
	if out["topk.ns_per_query"], err = timeMedian(func() error { _, err := o.Filter.TopK(ctx, batch, topK); return err }); err != nil {
		return nil, err
	}
	out["topk.subset_rows"] = float64(o.Filter.SubsetSize(e.topk[0].n, topK))

	// Point queries on single rows of the layer batch.
	var points []map[string]value.Value
	for i := 0; i < 64 && i < e.topk[0].n; i++ {
		p := make(map[string]value.Value, len(batch))
		for k, v := range batch {
			p[k] = v.Gather([]int{i})
		}
		points = append(points, p)
	}
	next := 0
	if out["core.point_ns"], err = timeMedian(func() error {
		_, err := o.PredictPoint(ctx, points[next%len(points)])
		next++
		return err
	}); err != nil {
		return nil, err
	}

	// Reconciliation on the last set-up. Offline: the cascade call on the
	// layer batch against its two stages timed apart. Serve: the served
	// request over HTTP against its in-process twin plus the same request
	// sent to a predictor that does nothing, all under the workload's
	// concurrency.
	if !w.serve {
		whole, err := timeMedian(func() error { _, err := o.PredictBatch(ctx, batch); return err })
		if err != nil {
			return nil, err
		}
		out["core.call_us"] = whole / 1e3
		out["unattributed.frac"] = 1 - (out["cascade.small_ns_per_row"]+out["cascade.resume_ns_per_row"])*rows/whole
		return out, nil
	}
	wholeMean, wholeP50, err := concurrentMean(e, w.callers, func(r *request) error {
		_, err := d.cli.PredictModel(ctx, modelName, r.inputs)
		return err
	})
	if err != nil {
		return nil, err
	}
	callMean, callP50, err := concurrentMean(e, w.callers, func(r *request) error {
		_, err := o.PredictBatch(ctx, r.inputs)
		return err
	})
	if err != nil {
		return nil, err
	}
	out["core.call_us"] = callMean
	out["serving.wire_us"] = wholeP50 - callP50
	if err := d.reg.DeployPredictor("noop", "v1", willump.PredictorFunc(
		func(_ context.Context, in willump.Inputs) ([]float64, error) {
			for _, v := range in {
				return make([]float64, v.Len()), nil
			}
			return nil, nil
		}), o.Inputs()); err != nil {
		return nil, err
	}
	noopMean, _, err := concurrentMean(e, w.callers, func(r *request) error {
		_, err := d.cli.PredictModel(ctx, "noop", r.inputs)
		return err
	})
	if err != nil {
		return nil, err
	}
	out["serving.noop_us"] = noopMean
	out["unattributed.frac"] = 1 - (callMean+noopMean)/wholeMean
	c := m.counts
	out["serving.allocs_per_request"] = float64(c.mallocs) / float64(m.served.calls)
	if lookups := c.cacheHits + c.cacheMisses; lookups > 0 {
		out["cache.hit_rate"] = float64(c.cacheHits) / float64(lookups)
	}
	if len(e.stores) > 0 {
		out["store.requests_per_row"] = float64(c.storeRequests) / float64(m.served.rows)
		out["store.hedges_per_request"] = float64(c.storeHedges) / float64(m.served.calls)
		out["store.retries_per_request"] = float64(c.storeRetries) / float64(m.served.calls)
		next := 0
		if out["store.mget_us"], err = timeMedian(func() error {
			r := &e.reqs[next%len(e.reqs)]
			s := e.stores[next%len(e.stores)]
			next++
			_, err := s.client.LookupBatchCtx(ctx, r.inputs[s.column].Ints)
			return err
		}); err != nil {
			return nil, err
		}
		out["store.mget_us"] /= 1e3
	}
	return out, nil
}
