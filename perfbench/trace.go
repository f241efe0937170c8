package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"hmc/internal/core"
	"hmc/internal/eg"
	"hmc/internal/interp"
	"hmc/internal/memmodel"
	"hmc/internal/obs"
	"hmc/internal/prog"
)

// span is one traced interval: a layer boundary crossed by a call the
// benchmark makes (or, for the service, read back from a job's
// timestamps). Times are nanoseconds since the tracer started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. add is safe for
// concurrent use: each span claims its own slot in a preallocated buffer,
// so recording a memmodel call under Workers: 2 takes no lock. Spans
// past the buffer are counted, not kept; the layer sums come from exact
// counters, not from the kept spans.
type tracer struct {
	origin  time.Time
	spans   []span
	n       atomic.Int64
	nextID  atomic.Int64
	dropped atomic.Int64
}

// maxSpans bounds the trace buffer (about 15 MB).
const maxSpans = 1 << 18

func newTracer() *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, maxSpans)}
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.origin)) }

func (tr *tracer) at(t time.Time) int64 { return int64(t.Sub(tr.origin)) }

// id reserves a span id, for a span whose children start before it ends.
func (tr *tracer) id() int64 { return tr.nextID.Add(1) }

// add records a finished span (a zero id takes a fresh one) and returns
// its id; past the buffer the span is counted as dropped.
func (tr *tracer) add(id, parent int64, name string, start, end int64) int64 {
	if id == 0 {
		id = tr.id()
	}
	i := tr.n.Add(1) - 1
	if i >= int64(len(tr.spans)) {
		tr.dropped.Add(1)
		return id
	}
	tr.spans[i] = span{ID: id, Parent: parent, Name: name, Start: start, End: end}
	return id
}

// finish computes every kept span's self time — its duration minus the
// part of it that its children cover — and returns the kept spans.
func (tr *tracer) finish() []span {
	n := tr.n.Load()
	if n > int64(len(tr.spans)) {
		n = int64(len(tr.spans))
	}
	spans := tr.spans[:n]
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		s.Self = s.End - s.Start - covered(children[s.ID], s.Start, s.End)
	}
	return spans
}

// covered returns how much of [lo, hi) the union of the intervals covers.
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		s, e := max(x[0], cur), min(x[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// writeSpans stores the spans as JSON lines.
func writeSpans(path string, spans []span, dropped int64) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if dropped > 0 {
		fmt.Fprintf(w, "{\"dropped_spans\":%d}\n", dropped)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedModel wraps a memmodel.Model for the traced run: Name is forwarded
// by embedding, and every Consistent call is timed into atomic counters
// and recorded as a child span of the current core.Explore span.
type timedModel struct {
	memmodel.Model
	tr       *tracer
	parent   int64
	calls    atomic.Int64
	accepted atomic.Int64
	ns       atomic.Int64
}

func (m *timedModel) Consistent(v *eg.View) bool {
	start := m.tr.now()
	ok := m.Model.Consistent(v)
	end := m.tr.now()
	m.calls.Add(1)
	if ok {
		m.accepted.Add(1)
	}
	m.ns.Add(end - start)
	m.tr.add(0, m.parent, "memmodel.Consistent", start, end)
	return ok
}

// captured is an execution graph taken from a traced run, with the
// program that produced it.
type captured struct {
	p *prog.Program
	g *eg.Graph
}

// graphsPerJob bounds the execution graphs captured from each job.
const graphsPerJob = 16

// coreTotals accumulates core and memmodel numbers over jobs.
type coreTotals struct {
	execs, states, checks, memoHits  int
	tried, taken, repairFail         int
	mallocs, bytes                   uint64
	wall, self, modelNS, phaseInterp time.Duration
	phaseConsist, phaseRevisit       time.Duration
	calls, accepted                  int64
	graphs                           []captured
}

// untracedCalls runs calls plainly, adding their allocation deltas and
// wall time to tot and returning each call's wall time.
func untracedCalls(calls []exploreJob, t *tally, tot *coreTotals) []time.Duration {
	walls := make([]time.Duration, len(calls))
	var before, after runtime.MemStats
	for i, c := range calls {
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		res, err := core.Explore(c.p, core.Options{Model: c.model, Workers: c.workers})
		walls[i] = time.Since(start)
		runtime.ReadMemStats(&after)
		if err == nil {
			err = checkResult(c.name(), res, c.want)
		}
		t.record(err)
		tot.wall += walls[i]
		tot.mallocs += after.Mallocs - before.Mallocs
		tot.bytes += after.TotalAlloc - before.TotalAlloc
	}
	return walls
}

// tracedCalls runs calls with the timed model, the sampled phase timers
// (a progress sink that only receives the final snapshot) and graph
// capture, recording workload → job → core.Explore → memmodel spans.
func tracedCalls(tr *tracer, parent int64, calls []exploreJob, t *tally, tot *coreTotals) time.Duration {
	start := time.Now()
	for _, c := range calls {
		jobID := tr.id()
		jobStart := tr.now()
		exploreID := tr.id()
		m := &timedModel{Model: c.model, tr: tr, parent: exploreID}
		var final obs.ProgressSnapshot
		stride := max(1, c.want.Executions/graphsPerJob)
		seen := 0
		var graphs []captured
		opts := core.Options{
			Model:   m,
			Workers: c.workers,
			Progress: &core.ProgressOptions{
				Every: time.Hour,
				Sink:  func(s obs.ProgressSnapshot) { final = s },
			},
			OnExecution: func(g *eg.Graph, _ prog.FinalState) {
				if seen%stride == 0 && len(graphs) < graphsPerJob {
					graphs = append(graphs, captured{c.p, g.Clone()})
				}
				seen++
			},
		}
		exStart := tr.now()
		res, err := core.Explore(c.p, opts)
		exEnd := tr.now()
		tr.add(exploreID, jobID, "core.Explore", exStart, exEnd)
		if err == nil {
			err = checkResult(c.name(), res, c.want)
		}
		t.record(err)
		tr.add(jobID, parent, "job "+c.name(), jobStart, tr.now())
		if res == nil {
			continue
		}
		// Self time: the explore span minus the part its memmodel
		// children cover (they overlap under Workers: 2).
		wall := time.Duration(exEnd - exStart)
		tot.wall += wall
		tot.self += wall - time.Duration(covered(childIntervals(tr, exploreID), exStart, exEnd))
		tot.modelNS += time.Duration(m.ns.Load())
		tot.calls += m.calls.Load()
		tot.accepted += m.accepted.Load()
		tot.phaseInterp += final.Phases.Interp
		tot.phaseConsist += final.Phases.Consistency
		tot.phaseRevisit += final.Phases.Revisit
		tot.execs += res.Executions
		tot.states += res.States
		tot.checks += res.ConsistencyChecks
		tot.memoHits += res.MemoHits
		tot.tried += res.RevisitsTried
		tot.taken += res.RevisitsTaken
		tot.repairFail += res.RevisitsRepairFail
		tot.graphs = append(tot.graphs, graphs...)
	}
	return time.Since(start)
}

// childIntervals returns the intervals of the kept spans whose parent is
// id. It scans the buffer; traced runs are small enough for that.
func childIntervals(tr *tracer, id int64) [][2]int64 {
	n := min(tr.n.Load(), int64(len(tr.spans)))
	var iv [][2]int64
	for _, s := range tr.spans[:n] {
		if s.Parent == id {
			iv = append(iv, [2]int64{s.Start, s.End})
		}
	}
	return iv
}

// costReps is how often each per-call operation is repeated per graph.
const costReps = 20

// layerCosts times the eg and interp entry points on the captured graphs:
// Graph.Clone, Graph.Key, GetView+PutView, interp.Next on every thread and
// interp.RepairAll on a fresh clone. It returns mean ns per call.
func layerCosts(graphs []captured) (clone, key, view, next, repair float64) {
	var nClone, nKey, nView, nNext, nRepair int
	var tClone, tKey, tView, tNext, tRepair time.Duration
	for _, c := range graphs {
		g := c.g
		start := time.Now()
		for i := 0; i < costReps; i++ {
			_ = g.Clone()
		}
		tClone += time.Since(start)
		nClone += costReps

		start = time.Now()
		for i := 0; i < costReps; i++ {
			_ = g.Key()
		}
		tKey += time.Since(start)
		nKey += costReps

		start = time.Now()
		for i := 0; i < costReps; i++ {
			eg.PutView(eg.GetView(g))
		}
		tView += time.Since(start)
		nView += costReps

		start = time.Now()
		for i := 0; i < costReps; i++ {
			for t := 0; t < g.NumThreads(); t++ {
				_ = interp.Next(c.p, g, t, 0)
			}
		}
		tNext += time.Since(start)
		nNext += costReps * g.NumThreads()

		clones := make([]*eg.Graph, costReps)
		for i := range clones {
			clones[i] = g.Clone()
		}
		start = time.Now()
		for _, cl := range clones {
			_ = interp.RepairAll(c.p, cl, 0)
		}
		tRepair += time.Since(start)
		nRepair += costReps
	}
	mean := func(d time.Duration, n int) float64 { return ratio(float64(d.Nanoseconds()), float64(n)) }
	return mean(tClone, nClone), mean(tKey, nKey), mean(tView, nView), mean(tNext, nNext), mean(tRepair, nRepair)
}

// coreLayers fills the core, memmodel, interp and eg metrics from an
// untraced and a traced pass over the same calls.
func coreLayers(untraced, traced *coreTotals, out map[string]float64) {
	execs := float64(traced.execs)
	out["core.states_per_exec"] = ratio(float64(traced.states), execs)
	out["core.checks_per_exec"] = ratio(float64(traced.checks), execs)
	out["core.memo_hits"] = float64(traced.memoHits)
	out["core.revisits_tried"] = float64(traced.tried)
	out["core.revisit_success_ratio"] = ratio(float64(traced.taken), float64(traced.tried))
	out["core.repair_fail"] = float64(traced.repairFail)
	out["core.allocs_per_exec"] = ratio(float64(untraced.mallocs), execs)
	out["core.bytes_per_exec"] = ratio(float64(untraced.bytes), execs)
	out["core.self_s"] = traced.self.Seconds()
	wall := float64(traced.wall)
	out["core.revisit_share"] = ratio(float64(traced.phaseRevisit), wall)
	out["memmodel.calls"] = float64(traced.calls)
	out["memmodel.check_ns"] = ratio(float64(traced.modelNS), float64(traced.calls))
	out["memmodel.accept_ratio"] = ratio(float64(traced.accepted), float64(traced.calls))
	out["memmodel.share"] = ratio(float64(traced.modelNS), wall)
	out["memmodel.sampled_share"] = ratio(float64(traced.phaseConsist), wall)
	out["interp.share"] = ratio(float64(traced.phaseInterp), wall)
	clone, key, view, next, repair := layerCosts(traced.graphs)
	out["eg.clone_ns"] = clone
	out["eg.key_ns"] = key
	out["eg.view_ns"] = view
	out["interp.next_ns"] = next
	out["interp.repair_ns"] = repair
}

// shuffled returns calls in a seeded order.
func shuffled(calls []exploreJob, rng *rand.Rand) []exploreJob {
	out := make([]exploreJob, len(calls))
	for i, j := range rng.Perm(len(calls)) {
		out[i] = calls[j]
	}
	return out
}
