// Package shard partitions one exploration across N explorers. It builds
// on two primitives from internal/core: checkpoints (a self-contained,
// versioned serialization of exploration state with exactly-once resume
// semantics) and state ownership (core.ShardSpec — canonical state keys
// hash into buckets, each bucket owned by exactly one shard, and an
// explorer running under Options.Shard forwards graphs it does not own
// instead of exploring them).
//
// Split turns a whole-run checkpoint into N disjoint shard checkpoints;
// the coordinator (coordinator.go) drives one explorer leg per shard —
// in-process or on hmcd peers — routing forwarded graphs between them,
// re-balancing buckets when a shard drains (work-stealing) and re-running
// failed legs from their input checkpoint; Merge recombines the shard
// checkpoints into a whole-run checkpoint whose counters are identical to
// the single-process run's. That identity is not approximate: each state
// is expanded by exactly one owner and each constructed graph is
// memo-checked exactly once (at its owner), so every Stats counter is
// invariant under the partition, the leg schedule, steals and retries —
// the property the equivalence tests in this package assert byte-for-byte.
package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"hmc/internal/core"
)

// DefaultBuckets is the default ownership-bucket count: coarse enough
// that the spec strings stay small, fine enough that work-stealing can
// move meaningful fractions of a shard's state space.
const DefaultBuckets = 64

// Split partitions a whole-run checkpoint into n self-contained shard
// checkpoints over the given number of ownership buckets (0 = a default):
// shard i owns buckets {b : b mod n == i}, the memo and seen sets are
// partitioned by bucket, and the pending frontier is dealt round-robin in
// canonical order (a misplaced pending graph is harmless: its first visit
// forwards it to the owner, exploring nothing). Shard 0 carries the base
// counters, verdict material and error reports; the other shards start
// from zero, so the shards' stats always sum to the whole run's.
func Split(cp *core.Checkpoint, n, buckets int) ([]*core.Checkpoint, error) {
	if cp == nil {
		return nil, errors.New("shard: Split of a nil checkpoint")
	}
	if cp.Shard != "" {
		return nil, fmt.Errorf("shard: Split input is already a shard checkpoint (%q)", cp.Shard)
	}
	if n < 1 {
		return nil, fmt.Errorf("shard: cannot split into %d shards", n)
	}
	if buckets == 0 {
		buckets = DefaultBuckets
		if buckets < n {
			buckets = n
		}
	}
	if buckets < n {
		return nil, fmt.Errorf("shard: %d buckets cannot cover %d shards", buckets, n)
	}
	specs := make([]*core.ShardSpec, n)
	for i := 0; i < n; i++ {
		var own []int
		for b := i; b < buckets; b += n {
			own = append(own, b)
		}
		spec, err := core.NewShardSpec(buckets, own)
		if err != nil {
			return nil, err
		}
		specs[i] = spec
	}
	out := make([]*core.Checkpoint, n)
	for i, spec := range specs {
		out[i] = &core.Checkpoint{
			Version:     cp.Version,
			Schema:      cp.Schema,
			Fingerprint: cp.Fingerprint,
			Model:       cp.Model,
			Opts:        cp.Opts,
			Shard:       spec.String(),
		}
	}
	// Base counters, keys and error reports ride shard 0; Stats sums (and
	// MaxGraphEvents maxes) recover them on Merge.
	out[0].Stats = cp.Stats
	out[0].Stats.Errors = nil
	out[0].Keys = append([]string(nil), cp.Keys...)
	out[0].DepViolationDetails = append([]string(nil), cp.DepViolationDetails...)
	out[0].Truncated = cp.Truncated
	out[0].TruncatedReason = cp.TruncatedReason
	out[0].Errors = append([]core.WireError(nil), cp.Errors...)
	for _, k := range cp.Memo {
		i := core.BucketOf(k, buckets) % n
		out[i].Memo = append(out[i].Memo, k)
	}
	for _, k := range cp.Seen {
		i := core.BucketOf(k, buckets) % n
		out[i].Seen = append(out[i].Seen, k)
	}
	pending := append(append([]json.RawMessage(nil), cp.Pending...), forwardedRaw(cp)...)
	sort.Slice(pending, func(i, j int) bool { return bytes.Compare(pending[i], pending[j]) < 0 })
	for i, raw := range pending {
		out[i%n].Pending = append(out[i%n].Pending, raw)
	}
	return out, nil
}

// forwardedRaw returns the raw graphs of a checkpoint's Forwarded list
// (pending-equivalent arrivals that have not been memo-checked yet).
func forwardedRaw(cp *core.Checkpoint) []json.RawMessage {
	if len(cp.Forwarded) == 0 {
		return nil
	}
	out := make([]json.RawMessage, 0, len(cp.Forwarded))
	for _, fw := range cp.Forwarded {
		out = append(out, fw.Graph)
	}
	return out
}

// Merge recombines shard checkpoints into one whole-run checkpoint. The
// inputs must agree on program, model, options, wire version and bucket
// count, and their ownership specs must partition the buckets exactly —
// disjoint and covering — the invariant the coordinator maintains across
// steals. Counters are summed (MaxGraphEvents maxed, Truncated ORed),
// sets are unioned, and pending plus forwarded graphs become the merged
// pending frontier, all in canonical sorted order: merging the same
// shards always yields the same bytes, and Merge(Split(cp)) is equivalent
// to cp (same counters, sets and frontier, canonically ordered). The
// result carries no shard spec, so any single explorer — or a fresh Split
// — can resume it.
func Merge(cps []*core.Checkpoint) (*core.Checkpoint, error) {
	if len(cps) == 0 {
		return nil, errors.New("shard: Merge of no checkpoints")
	}
	base := cps[0]
	if base == nil {
		return nil, errors.New("shard: Merge of a nil checkpoint")
	}
	merged := &core.Checkpoint{
		Version:     base.Version,
		Schema:      base.Schema,
		Fingerprint: base.Fingerprint,
		Model:       base.Model,
		Opts:        base.Opts,
	}
	owners := map[int]bool{}
	mod := 0
	for i, cp := range cps {
		if cp == nil {
			return nil, fmt.Errorf("shard: Merge input %d is nil", i)
		}
		if cp.Version != base.Version || cp.Schema != base.Schema {
			return nil, fmt.Errorf("shard: Merge input %d version %d/%d, input 0 is %d/%d", i, cp.Version, cp.Schema, base.Version, base.Schema)
		}
		if cp.Fingerprint != base.Fingerprint || cp.Model != base.Model || cp.Opts != base.Opts {
			return nil, fmt.Errorf("shard: Merge input %d describes a different run (fingerprint/model/options)", i)
		}
		spec, err := core.ParseShardSpec(cp.Shard)
		if err != nil {
			return nil, fmt.Errorf("shard: Merge input %d: %w", i, err)
		}
		if mod == 0 {
			mod = spec.Mod()
		} else if spec.Mod() != mod {
			return nil, fmt.Errorf("shard: Merge input %d has %d buckets, input 0 has %d", i, spec.Mod(), mod)
		}
		for _, b := range spec.Buckets() {
			if owners[b] {
				return nil, fmt.Errorf("shard: Merge inputs both own bucket %d", b)
			}
			owners[b] = true
		}
		mergeStats(&merged.Stats, cp.Stats)
		merged.Keys = append(merged.Keys, cp.Keys...)
		merged.DepViolationDetails = append(merged.DepViolationDetails, cp.DepViolationDetails...)
		if cp.Truncated {
			merged.Truncated = true
			if merged.TruncatedReason == "" {
				merged.TruncatedReason = cp.TruncatedReason
			}
		}
		merged.Errors = append(merged.Errors, cp.Errors...)
		merged.Memo = append(merged.Memo, cp.Memo...)
		merged.Seen = append(merged.Seen, cp.Seen...)
		merged.Pending = append(merged.Pending, cp.Pending...)
		merged.Pending = append(merged.Pending, forwardedRaw(cp)...)
	}
	for b := 0; b < mod; b++ {
		if !owners[b] {
			return nil, fmt.Errorf("shard: Merge inputs leave bucket %d unowned", b)
		}
	}
	sort.Strings(merged.Keys)
	sort.Strings(merged.DepViolationDetails)
	sort.Strings(merged.Memo)
	sort.Strings(merged.Seen)
	sort.Slice(merged.Pending, func(i, j int) bool { return bytes.Compare(merged.Pending[i], merged.Pending[j]) < 0 })
	sort.Slice(merged.Errors, func(i, j int) bool {
		a, b := merged.Errors[i], merged.Errors[j]
		if a.Thread != b.Thread {
			return a.Thread < b.Thread
		}
		if a.Msg != b.Msg {
			return a.Msg < b.Msg
		}
		return bytes.Compare(a.Graph, b.Graph) < 0
	})
	if len(merged.Keys) == 0 {
		merged.Keys = nil
	}
	if len(merged.Errors) == 0 {
		merged.Errors = nil
	}
	return merged, nil
}

// mergeStats accumulates s into dst: every counter sums, except
// MaxGraphEvents (a maximum). TestMergeStatsCoversAllFields keeps this
// list in sync with core.Stats by reflection.
func mergeStats(dst *core.Stats, s core.Stats) {
	dst.Executions += s.Executions
	dst.ExistsCount += s.ExistsCount
	dst.Blocked += s.Blocked
	dst.Duplicates += s.Duplicates
	dst.RevisitsTried += s.RevisitsTried
	dst.RevisitsTaken += s.RevisitsTaken
	dst.States += s.States
	dst.MemoHits += s.MemoHits
	dst.RevisitsRepairFail += s.RevisitsRepairFail
	dst.RevisitsRepairFailDiverged += s.RevisitsRepairFailDiverged
	dst.RevisitsRepairFailInconsistent += s.RevisitsRepairFailInconsistent
	dst.RevisitsRepairFailDoomed += s.RevisitsRepairFailDoomed
	dst.RevisitsRepairFailOOTA += s.RevisitsRepairFailOOTA
	dst.RevisitsChainSkipped += s.RevisitsChainSkipped
	dst.RevisitsPorfSkip += s.RevisitsPorfSkip
	dst.ConsistencyChecks += s.ConsistencyChecks
	dst.StuckReads += s.StuckReads
	if s.MaxGraphEvents > dst.MaxGraphEvents {
		dst.MaxGraphEvents = s.MaxGraphEvents
	}
	dst.StaticPrunedRf += s.StaticPrunedRf
	dst.StaticPrunedCo += s.StaticPrunedCo
	dst.StaticPrunedScans += s.StaticPrunedScans
	dst.DepViolations += s.DepViolations
}
