package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"hmc/internal/core"
	"hmc/internal/eg"
	"hmc/internal/obs"
	"hmc/internal/prog"
)

// DefaultStealAfter is the default work-stealing patience: once a shard
// sits idle this long while another leg is still running, the coordinator
// cancels the fattest leg (it drains into a checkpoint) and moves half
// its buckets — memo, seen and pending included — to the idle shard.
const DefaultStealAfter = 50 * time.Millisecond

// defaultLegRetries is how many times a failed or panicking leg is re-run
// from its input checkpoint before the whole run is declared failed.
const defaultLegRetries = 2

// Options configures a sharded exploration.
type Options struct {
	// Shards is the number of shards (1 = plain core.Explore, the legacy
	// single-explorer path, byte-for-byte).
	Shards int
	// Buckets is the ownership-bucket count (0 = shard.DefaultBuckets,
	// raised to Shards when needed). More buckets = finer steals.
	Buckets int
	// Workers caps concurrently running legs (0 = Shards). Each leg may
	// additionally parallelize internally via Core.Workers.
	Workers int
	// Core carries the run's semantic options and global Context. The
	// per-leg mechanics — ResumeFrom, Shard, Checkpoint, Progress, Trace,
	// FailAfter — belong to the coordinator; setting them is an error,
	// except ResumeFrom, which resumes a whole-run (merged) checkpoint.
	// MaxExecutions and MemoryBudget apply per shard, not globally.
	Core core.Options
	// Source/Test identify the program for remote runners (see
	// LegRequest).
	Source, Test string
	// Runners execute legs; shard i runs on Runners[i%len(Runners)].
	// Empty means local-only. A runner failure is retried on the local
	// fallback path via the normal retry budget.
	Runners []Runner
	// MaxLegRetries bounds re-runs of a failed leg (0 = a default; <0
	// disables retries — the first leg failure fails the run).
	MaxLegRetries int
	// StealAfter is the idle patience before a work-steal (0 = a
	// default; <0 disables stealing).
	StealAfter time.Duration
	// CheckpointSink, when non-nil, receives a merged whole-run
	// checkpoint after leg completions — the durability hook (journal).
	// CheckpointEveryExecs throttles it: snapshots are emitted only
	// after that many new executions (0 = every leg completion).
	CheckpointSink       func(*core.Checkpoint)
	CheckpointEveryExecs int
	// OnProgress, when non-nil, receives fleet-level progress snapshots
	// (with per-shard rows) at most every ProgressEvery (0 = 1s), plus a
	// final one.
	OnProgress    func(obs.ProgressSnapshot)
	ProgressEvery time.Duration
	// OnActive/OnSteal/OnRetry are metrics hooks: running-leg gauge
	// updates, completed steals, and leg retries.
	OnActive func(active int)
	OnSteal  func()
	OnRetry  func()
	// PeerStatus, when non-nil, supplies per-peer rows for progress
	// snapshots (see Pool.Snapshot).
	PeerStatus func() []obs.PeerProgress

	// failLeg is the chaos-test hook: consulted before each leg launch
	// with (shard, attempt); a non-nil error kills that leg attempt as if
	// the worker had died mid-run.
	failLeg func(shard, attempt int) error
}

// legDone is a completed leg attempt.
type legDone struct {
	shard int
	cp    *core.Checkpoint
	err   error
}

// shardState is the coordinator's view of one shard.
type shardState struct {
	cp            *core.Checkpoint // authoritative state (input of the running leg)
	spec          *core.ShardSpec
	inbox         []json.RawMessage // routed arrivals awaiting the next leg
	running       bool
	stealing      bool // leg cancelled for re-balancing
	retries       int  // cumulative re-runs (metrics)
	attempt       int  // current failure streak, reset by a completed leg
	steals        int  // times this shard was the steal victim
	launchPending int  // frontier size when the current leg launched
	launched      time.Time
	execRate      float64 // last computed executions/sec (progress)
	cancel        context.CancelFunc
}

// Explore runs p under o.Core split across o.Shards explorers and returns
// the merged result. The merged counters are identical to a
// single-process core.Explore — states are partitioned by ownership, each
// expanded exactly once, every constructed graph memo-checked exactly once
// at its owner — regardless of the leg schedule, work-steals, peer
// failures and leg retries. Cancellation of Core.Context yields an
// interrupted Result whose Checkpoint is a merged whole-run snapshot any
// explorer (sharded or not) can resume.
func Explore(p *prog.Program, o Options) (*core.Result, error) {
	if o.Shards <= 1 {
		return core.Explore(p, o.Core)
	}
	if o.Core.Model == nil {
		return nil, errors.New("shard: Options.Core.Model is required")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if o.Core.StopOnError {
		// A hard stop discards in-flight state without a checkpoint, which
		// has no sound merged meaning; errors are collected instead.
		return nil, errors.New("shard: StopOnError is not supported under sharded exploration")
	}
	if o.Core.Checkpoint != nil || o.Core.Progress != nil || o.Core.Trace != nil || o.Core.FailAfter > 0 || o.Core.Shard != nil {
		return nil, errors.New("shard: Core checkpoint/progress/trace/fail-after/shard options are coordinator-owned")
	}
	c := &coordinator{p: p, o: o}
	return c.run()
}

type coordinator struct {
	p *prog.Program
	o Options

	coreOpts core.Options // per-leg options (callbacks wrapped, Context cleared)
	ctx      context.Context
	states   []*shardState
	owner    []int // bucket -> shard index
	runners  []Runner
	keyOf    func(*eg.Graph) string

	active        int
	legsDone      int
	progressSeq   int
	started       time.Time
	lastProgress  time.Time
	lastSinkExecs int
}

func (c *coordinator) run() (*core.Result, error) {
	o := &c.o
	c.ctx = o.Core.Context
	if c.ctx == nil {
		c.ctx = context.Background()
	}
	c.coreOpts = o.Core
	c.coreOpts.Context = nil
	c.coreOpts.ResumeFrom = nil
	c.wrapCallbacks()
	c.runners = o.Runners
	if len(c.runners) == 0 {
		c.runners = []Runner{Local{}}
	}
	if err := c.checkCallbackRunners(); err != nil {
		return nil, err
	}
	base := o.Core.ResumeFrom
	if base == nil {
		var err error
		if base, err = core.InitialCheckpoint(c.p, c.coreOpts); err != nil {
			return nil, err
		}
	} else if base.Shard != "" {
		return nil, fmt.Errorf("shard: ResumeFrom is a shard-leg checkpoint (%q); merge the legs first", base.Shard)
	}
	cps, err := Split(base, o.Shards, o.Buckets)
	if err != nil {
		return nil, err
	}
	c.states = make([]*shardState, len(cps))
	for i, cp := range cps {
		spec, err := core.ParseShardSpec(cp.Shard)
		if err != nil {
			return nil, err
		}
		c.states[i] = &shardState{cp: cp, spec: spec}
		if c.owner == nil {
			c.owner = make([]int, spec.Mod())
		}
		for _, b := range spec.Buckets() {
			c.owner[b] = i
		}
	}
	if c.keyOf, err = core.KeyFunc(c.p, c.coreOpts.Symmetry); err != nil {
		return nil, err
	}
	c.started = time.Now() //hmc:nondet(run start time feeds progress rates only, never merged counters)

	workers := o.Workers
	if workers <= 0 {
		workers = o.Shards
	}
	maxRetries := o.MaxLegRetries
	if maxRetries == 0 {
		maxRetries = defaultLegRetries
	} else if maxRetries < 0 {
		maxRetries = 0
	}
	stealAfter := o.StealAfter
	if stealAfter == 0 {
		stealAfter = DefaultStealAfter
	}

	done := make(chan legDone)
	var stealTimer *time.Timer
	var stealC <-chan time.Time
	defer func() {
		if stealTimer != nil {
			stealTimer.Stop()
		}
	}()
	var fatal error
	for {
		if fatal == nil && c.ctx.Err() == nil {
			for i := range c.states {
				if c.active >= workers {
					break
				}
				if c.runnable(i) {
					c.launch(i, done)
				}
			}
		}
		if c.active == 0 {
			break // exhausted, cancelled, or fatal — nothing in flight
		}
		wantSteal := stealAfter > 0 && fatal == nil && c.ctx.Err() == nil &&
			c.active < workers && c.anyIdle() && c.bestVictim() >= 0
		if wantSteal && stealC == nil {
			stealTimer = time.NewTimer(stealAfter)
			stealC = stealTimer.C
		} else if !wantSteal && stealC != nil {
			stealTimer.Stop()
			stealC = nil
		}
		select {
		case d := <-done:
			if err := c.handle(d, maxRetries); err != nil && fatal == nil {
				fatal = err
				c.cancelAll()
			}
			c.maybeSink()
			c.maybeProgress(false)
		case <-stealC:
			stealC = nil
			if v := c.bestVictim(); v >= 0 {
				c.states[v].stealing = true
				c.states[v].cancel()
			}
		}
	}
	if fatal != nil {
		return nil, fatal
	}
	merged, err := Merge(c.snapshotCps())
	if err != nil {
		return nil, err
	}
	res, err := resultFromCheckpoint(merged)
	if err != nil {
		return nil, err
	}
	if c.ctx.Err() != nil {
		res.Interrupted = true
	}
	if res.Interrupted || len(merged.Pending) > 0 {
		res.Checkpoint = merged
	}
	c.maybeProgress(true)
	return res, nil
}

// cancelAll cancels every running leg (fatal-error wind-down).
func (c *coordinator) cancelAll() {
	for _, st := range c.states {
		if st.cancel != nil {
			st.cancel()
		}
	}
}

// runnable reports whether shard i has work it is allowed to run: a
// non-empty frontier and no exhausted per-shard resource bound
// (relaunching a bound-exhausted leg would spin, resuming-at-the-bound
// forever).
func (c *coordinator) runnable(i int) bool {
	st := c.states[i]
	if st.running || (len(st.cp.Pending) == 0 && len(st.inbox) == 0) {
		return false
	}
	if st.cp.Truncated &&
		(st.cp.TruncatedReason == core.TruncMaxExecutions || st.cp.TruncatedReason == core.TruncMemoryBudget) {
		return false
	}
	return true
}

// anyIdle reports whether some shard is drained and waiting for work.
func (c *coordinator) anyIdle() bool {
	for _, st := range c.states {
		if !st.running && len(st.cp.Pending) == 0 && len(st.inbox) == 0 {
			return true
		}
	}
	return false
}

// bestVictim picks the running leg with the fattest input frontier (≥2
// graphs — below that there is nothing to split) that is not already
// being stolen from.
func (c *coordinator) bestVictim() int {
	best, bestN := -1, 1
	for i, st := range c.states {
		if st.running && !st.stealing && st.launchPending > bestN {
			best, bestN = i, st.launchPending
		}
	}
	return best
}

func (c *coordinator) launch(i int, done chan<- legDone) {
	st := c.states[i]
	if len(st.inbox) > 0 {
		cp := *st.cp
		cp.Pending = append(append([]json.RawMessage(nil), cp.Pending...), st.inbox...)
		sortRaw(cp.Pending)
		st.cp = &cp
		st.inbox = nil
	}
	legCtx, cancel := context.WithCancel(c.ctx)
	st.cancel = cancel
	st.running = true
	st.launchPending = len(st.cp.Pending)
	st.launched = time.Now() //hmc:nondet(leg launch time drives steal patience, an availability heuristic outside the counter path)
	c.active++
	if c.o.OnActive != nil {
		c.o.OnActive(c.active)
	}
	req := &LegRequest{
		Program:    c.p,
		Source:     c.o.Source,
		Test:       c.o.Test,
		Opts:       c.coreOpts,
		Checkpoint: st.cp,
		Spec:       st.spec,
	}
	r := c.runners[i%len(c.runners)]
	if st.attempt > 0 {
		// Retries run on the local fallback: the assigned runner just
		// failed (a dead peer would fail every retry identically), and the
		// leg's input checkpoint is untouched, so where it re-runs is free.
		r = Runner(Local{})
	}
	fail := c.o.failLeg
	attempt := st.attempt
	go func() {
		cp, err := runLegGuarded(legCtx, r, req, fail, i, attempt)
		done <- legDone{shard: i, cp: cp, err: err}
	}()
}

// runLegGuarded is the worker-death boundary: a panicking runner — the
// in-process analogue of a SIGKILLed peer — surfaces as a leg error, and
// the coordinator re-runs the leg from its input checkpoint.
func runLegGuarded(ctx context.Context, r Runner, req *LegRequest, fail func(int, int) error, shard, attempt int) (cp *core.Checkpoint, err error) {
	defer func() {
		if v := recover(); v != nil {
			cp, err = nil, fmt.Errorf("shard: leg %d runner panicked: %v", shard, v)
		}
	}()
	if fail != nil {
		if ferr := fail(shard, attempt); ferr != nil {
			return nil, ferr
		}
	}
	return r.RunLeg(ctx, req)
}

func (c *coordinator) handle(d legDone, maxRetries int) error {
	st := c.states[d.shard]
	st.running = false
	if st.cancel != nil {
		st.cancel()
		st.cancel = nil
	}
	c.active--
	if c.o.OnActive != nil {
		c.o.OnActive(c.active)
	}
	c.legsDone++
	wasStealing := st.stealing
	st.stealing = false
	if d.err != nil {
		if c.ctx.Err() != nil {
			return nil // global cancellation killed the leg; cp (input) stays authoritative
		}
		if wasStealing {
			// A cancelled remote leg returns no checkpoint: its partial
			// work is discarded and the input checkpoint re-balanced —
			// still exactly-once, nothing from the dead leg was merged.
			c.rebalance(d.shard)
			return nil
		}
		if errors.Is(d.err, core.ErrCheckpointMismatch) {
			return d.err // deterministic; retrying cannot help
		}
		st.retries++
		st.attempt++
		if c.o.OnRetry != nil {
			c.o.OnRetry()
		}
		if st.attempt > maxRetries {
			return fmt.Errorf("shard: leg %d failed %d times in a row: %w", d.shard, st.attempt, d.err)
		}
		return nil // cp unchanged; the launch loop re-runs it
	}
	st.attempt = 0
	if secs := time.Since(st.launched).Seconds(); secs > 0 {
		st.execRate = obs.Finite(float64(d.cp.Stats.Executions-st.cp.Stats.Executions) / secs)
	}
	c.route(d.cp)
	d.cp.Forwarded = nil
	st.cp = d.cp
	if wasStealing && c.ctx.Err() == nil {
		c.rebalance(d.shard)
	}
	return nil
}

// route moves a returned checkpoint's forwarded graphs into their owner
// shards' inboxes. Called exactly once per returned checkpoint, before
// Forwarded is stripped — the exactly-once handoff.
func (c *coordinator) route(cp *core.Checkpoint) {
	for _, fw := range cp.Forwarded {
		j := c.owner[fw.Bucket]
		c.states[j].inbox = append(c.states[j].inbox, fw.Graph)
	}
}

// rebalance re-partitions a stolen-from shard: every pending graph is
// re-keyed to its current owner (drain strays go straight to other
// shards' inboxes), and about half the victim's pending work — bucket
// granular, with the matching memo and seen entries — moves to an idle
// shard. Ownership stays disjoint and covering throughout, so counter
// exactness survives any number of steals.
func (c *coordinator) rebalance(v int) {
	st := c.states[v]
	thief := -1
	for j, other := range c.states {
		if j != v && !other.running && len(other.cp.Pending) == 0 && len(other.inbox) == 0 {
			thief = j
			break
		}
	}
	// Group the victim's pending frontier by ownership bucket.
	byBucket := map[int][]json.RawMessage{}
	var keep []json.RawMessage
	for _, raw := range st.cp.Pending {
		g, err := decodeRawGraph(raw)
		if err != nil {
			keep = append(keep, raw) // unroutable: let the leg handle it
			continue
		}
		b := core.BucketOf(c.keyOf(g), st.spec.Mod())
		if c.owner[b] != v {
			// A drain stray: the pending frontier is recorded before keys
			// are computed, so it can hold graphs other shards own.
			c.states[c.owner[b]].inbox = append(c.states[c.owner[b]].inbox, raw)
			continue
		}
		byBucket[b] = append(byBucket[b], raw)
	}
	if thief < 0 || len(byBucket) < 2 {
		// Nothing to move (no idle shard, or all pending in one bucket):
		// reinstall what remains and let the leg resume.
		st.cp = reslicePending(st.cp, flattenBuckets(byBucket, keep))
		return
	}
	tst := c.states[thief]
	// Greedy halving: fattest buckets first, each to the lighter side.
	buckets := make([]int, 0, len(byBucket))
	for b := range byBucket {
		buckets = append(buckets, b)
	}
	sort.Slice(buckets, func(i, j int) bool {
		if len(byBucket[buckets[i]]) != len(byBucket[buckets[j]]) {
			return len(byBucket[buckets[i]]) > len(byBucket[buckets[j]])
		}
		return buckets[i] < buckets[j]
	})
	moved := map[int]bool{}
	keepN, moveN := 0, 0
	for _, b := range buckets {
		if moveN < keepN {
			moved[b] = true
			moveN += len(byBucket[b])
		} else {
			keepN += len(byBucket[b])
		}
	}
	if len(moved) == 0 {
		st.cp = reslicePending(st.cp, flattenBuckets(byBucket, keep))
		return
	}
	// Move the buckets: ownership, then the state that lives in them.
	victimOwn, thiefOwn := []int{}, tst.spec.Buckets()
	for _, b := range st.spec.Buckets() {
		if moved[b] {
			thiefOwn = append(thiefOwn, b)
			c.owner[b] = thief
		} else {
			victimOwn = append(victimOwn, b)
		}
	}
	var err error
	if st.spec, err = core.NewShardSpec(st.spec.Mod(), victimOwn); err != nil {
		panic(fmt.Sprintf("shard: rebalance built invalid spec: %v", err))
	}
	if tst.spec, err = core.NewShardSpec(tst.spec.Mod(), thiefOwn); err != nil {
		panic(fmt.Sprintf("shard: rebalance built invalid spec: %v", err))
	}
	var vKeep, tTake []json.RawMessage
	for b, raws := range byBucket {
		if moved[b] {
			tTake = append(tTake, raws...)
		} else {
			vKeep = append(vKeep, raws...)
		}
	}
	vKeep = append(vKeep, keep...)
	vMemo, tMemo := splitKeys(st.cp.Memo, st.spec.Mod(), moved)
	vSeen, tSeen := splitKeys(st.cp.Seen, st.spec.Mod(), moved)
	tcp := *tst.cp
	tcp.Shard = tst.spec.String()
	tcp.Memo = sortedUnion(tcp.Memo, tMemo)
	tcp.Seen = sortedUnion(tcp.Seen, tSeen)
	tcp.Pending = append(append([]json.RawMessage(nil), tcp.Pending...), tTake...)
	sortRaw(tcp.Pending)
	tst.cp = &tcp
	vcp := *st.cp
	vcp.Shard = st.spec.String()
	vcp.Memo = vMemo
	vcp.Seen = vSeen
	vcp.Pending = vKeep
	sortRaw(vcp.Pending)
	st.cp = &vcp
	st.steals++
	if c.o.OnSteal != nil {
		c.o.OnSteal()
	}
}

// snapshotCps returns a mergeable view of the fleet: each shard's
// authoritative checkpoint with its inbox folded into pending. Safe while
// legs run — a running leg's input checkpoint stays authoritative until
// its result is handled, so the snapshot is merely behind, never wrong.
func (c *coordinator) snapshotCps() []*core.Checkpoint {
	out := make([]*core.Checkpoint, len(c.states))
	for i, st := range c.states {
		cp := *st.cp
		if len(st.inbox) > 0 {
			cp.Pending = append(append([]json.RawMessage(nil), cp.Pending...), st.inbox...)
			sortRaw(cp.Pending)
		}
		out[i] = &cp
	}
	return out
}

func (c *coordinator) maybeSink() {
	if c.o.CheckpointSink == nil {
		return
	}
	total := 0
	for _, st := range c.states {
		total += st.cp.Stats.Executions
	}
	if c.o.CheckpointEveryExecs > 0 && total-c.lastSinkExecs < c.o.CheckpointEveryExecs {
		return
	}
	merged, err := Merge(c.snapshotCps())
	if err != nil {
		return // never let a durability hiccup kill the run
	}
	c.lastSinkExecs = total
	c.o.CheckpointSink(merged)
}

func (c *coordinator) maybeProgress(final bool) {
	if c.o.OnProgress == nil {
		return
	}
	every := c.o.ProgressEvery
	if every <= 0 {
		every = time.Second
	}
	if !final && time.Since(c.lastProgress) < every {
		return
	}
	c.lastProgress = time.Now() //hmc:nondet(progress snapshot cadence is wall-clock by design; snapshots observe, never steer)
	c.progressSeq++
	snap := obs.ProgressSnapshot{Seq: c.progressSeq, Wave: c.legsDone, Final: final}
	elapsed := time.Since(c.started)
	snap.Elapsed = elapsed
	for i, st := range c.states {
		s := st.cp.Stats
		frontier := len(st.cp.Pending) + len(st.inbox)
		snap.Executions += s.Executions
		snap.Blocked += s.Blocked
		snap.States += s.States
		snap.MemoHits += s.MemoHits
		snap.MemoSize += len(st.cp.Memo)
		snap.Frontier += frontier
		snap.RevisitsTried += s.RevisitsTried
		snap.RevisitsTaken += s.RevisitsTaken
		snap.ConsistencyChecks += s.ConsistencyChecks
		snap.StaticPrunedRf += s.StaticPrunedRf
		snap.StaticPrunedCo += s.StaticPrunedCo
		snap.StaticPrunedScans += s.StaticPrunedScans
		snap.RevisitsChainSkipped += s.RevisitsChainSkipped
		snap.RevisitsRepairFail += s.RevisitsRepairFail
		snap.RevisitsRepairFailDiverged += s.RevisitsRepairFailDiverged
		snap.RevisitsRepairFailInconsistent += s.RevisitsRepairFailInconsistent
		snap.RevisitsRepairFailDoomed += s.RevisitsRepairFailDoomed
		snap.RevisitsRepairFailOOTA += s.RevisitsRepairFailOOTA
		snap.Shards = append(snap.Shards, obs.ShardProgress{
			Shard:       i,
			Frontier:    frontier,
			Executions:  s.Executions,
			ExecsPerSec: st.execRate,
			Running:     st.running,
			Steals:      st.steals,
			Retries:     st.retries,
		})
	}
	snap.ExecsPerSec = obs.Rate(snap.Executions, elapsed)
	snap.ChecksPerSec = obs.Rate(snap.ConsistencyChecks, elapsed)
	if c.o.PeerStatus != nil {
		snap.Peers = c.o.PeerStatus()
	}
	c.o.OnProgress(snap)
}

// wrapCallbacks serializes the run's callbacks across legs: inside one
// leg they are already serialized (core holds its lock), but two legs are
// independent processes as far as core knows.
func (c *coordinator) wrapCallbacks() {
	var mu sync.Mutex
	if f := c.coreOpts.OnExecution; f != nil {
		c.coreOpts.OnExecution = func(g *eg.Graph, fs prog.FinalState) {
			mu.Lock()
			defer mu.Unlock()
			f(g, fs)
		}
	}
	if f := c.coreOpts.OnBlocked; f != nil {
		c.coreOpts.OnBlocked = func(g *eg.Graph) {
			mu.Lock()
			defer mu.Unlock()
			f(g)
		}
	}
	if f := c.coreOpts.OnDuplicate; f != nil {
		c.coreOpts.OnDuplicate = func(g *eg.Graph) {
			mu.Lock()
			defer mu.Unlock()
			f(g)
		}
	}
}

// checkCallbackRunners rejects callback options when any leg may run out
// of process (callbacks cannot cross the wire).
func (c *coordinator) checkCallbackRunners() error {
	o := &c.coreOpts
	if o.OnExecution == nil && o.OnBlocked == nil && o.OnDuplicate == nil {
		return nil
	}
	for _, r := range c.runners {
		if ip, ok := r.(inProcess); !ok || !ip.InProcess() {
			return errors.New("shard: callback options (OnExecution/OnBlocked/OnDuplicate) require in-process runners")
		}
	}
	return nil
}

// resultFromCheckpoint turns a merged whole-run checkpoint into a Result.
func resultFromCheckpoint(cp *core.Checkpoint) (*core.Result, error) {
	errs, err := core.DecodeErrorReports(cp.Errors)
	if err != nil {
		return nil, err
	}
	res := &core.Result{
		Keys:                append([]string(nil), cp.Keys...),
		DepViolationDetails: append([]string(nil), cp.DepViolationDetails...),
		Truncated:           cp.Truncated,
		TruncatedReason:     cp.TruncatedReason,
	}
	res.Stats = cp.Stats
	res.Stats.Errors = errs
	return res, nil
}

func decodeRawGraph(raw json.RawMessage) (*eg.Graph, error) {
	var wg eg.WireGraph
	if err := json.Unmarshal(raw, &wg); err != nil {
		return nil, err
	}
	return wg.Decode()
}

func sortRaw(raws []json.RawMessage) {
	sort.Slice(raws, func(i, j int) bool { return bytes.Compare(raws[i], raws[j]) < 0 })
}

// splitKeys partitions sorted key sets by moved bucket; both halves stay
// sorted (a stable partition of a sorted slice).
func splitKeys(keys []string, mod int, moved map[int]bool) (kept, taken []string) {
	for _, k := range keys {
		if moved[core.BucketOf(k, mod)] {
			taken = append(taken, k)
		} else {
			kept = append(kept, k)
		}
	}
	return kept, taken
}

func sortedUnion(a, b []string) []string {
	if len(b) == 0 {
		return a
	}
	out := append(append([]string(nil), a...), b...)
	sort.Strings(out)
	return out
}

func flattenBuckets(byBucket map[int][]json.RawMessage, extra []json.RawMessage) []json.RawMessage {
	var out []json.RawMessage
	for _, raws := range byBucket {
		out = append(out, raws...)
	}
	out = append(out, extra...)
	sortRaw(out)
	return out
}

func reslicePending(cp *core.Checkpoint, pending []json.RawMessage) *core.Checkpoint {
	out := *cp
	out.Pending = pending
	return &out
}
