// Package faultinject is a deterministic fault-injection harness for the
// service's durability-critical boundary: the file the write-ahead
// journal appends to. A Plan — committed JSON, loadable from a file — is
// applied as a journal-file shim that decides per call whether to
// misbehave.
//
// Decisions are *schedule-deterministic*: the wrapper numbers its calls
// with an atomic ordinal, and whether call n suffers a fault is a pure
// hash of (seed, boundary, fault kind, n). Re-running the same schedule —
// the same ordinal assignment — replays exactly the same faults, which is
// what makes a red chaos run reproducible from its committed plan; under
// concurrency the ordinal assignment itself can vary with interleaving,
// so the guarantee is per-schedule, not per-wall-clock. Nothing here
// consults math/rand at decision time.
//
// The package is stdlib-only and imported from tests and from the
// dev-only `hmcd -chaos-plan FILE` flag; production builds without the
// flag never construct a wrapper.
package faultinject

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// Plan is a complete fault schedule: one seed plus the journal spec.
// A nil spec leaves the journal untouched.
type Plan struct {
	// Seed drives every percentage decision; two plans with the same
	// faults but different seeds fault different ordinals.
	Seed int64 `json:"seed"`
	// Journal faults apply to journal file writes/fsyncs (see File).
	Journal *FileFaults `json:"journal,omitempty"`
}

// FileFaults describes journal-file misbehavior by operation ordinal.
type FileFaults struct {
	// WriteErrAt fails these write ordinals with ENOSPC, writing nothing.
	WriteErrAt []int64 `json:"write_err_at,omitempty"`
	// ShortWriteAt writes only the first half of these write ordinals,
	// then reports io.ErrShortWrite — a torn append.
	ShortWriteAt []int64 `json:"short_write_at,omitempty"`
	// SyncErrAt fails these fsync ordinals with EIO.
	SyncErrAt []int64 `json:"sync_err_at,omitempty"`
	// WriteErrPct fails this percentage of writes with ENOSPC.
	WriteErrPct int `json:"write_err_pct,omitempty"`
}

// Validate rejects plans whose numbers cannot mean anything.
func (p *Plan) Validate() error {
	if j := p.Journal; j != nil && (j.WriteErrPct < 0 || j.WriteErrPct > 100) {
		return fmt.Errorf("faultinject: journal.write_err_pct = %d%% out of [0, 100]", j.WriteErrPct)
	}
	return nil
}

// LoadPlan reads and validates a JSON fault plan from path. Unknown
// fields are rejected: a plan naming a boundary this harness does not
// wrap (an old "http" section, a misspelt fault) fails loudly instead of
// quietly injecting nothing.
func LoadPlan(path string) (*Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var p Plan
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("faultinject: %s: %w", path, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("faultinject: %s: trailing data after the plan", path)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("faultinject: %s: %w", path, err)
	}
	return &p, nil
}

// decide reports whether ordinal n of the named fault fires at pct
// percent — a pure function of its arguments, so the same schedule
// replays the same faults.
func decide(seed int64, boundary, kind string, n int64, pct int) bool {
	if pct <= 0 {
		return false
	}
	if pct >= 100 {
		return true
	}
	return mix(seed, boundary, kind, n)%100 < uint64(pct)
}

// mix is an FNV-1a fold of the decision coordinates through a splitmix64
// finalizer — cheap, stdlib-free, and well distributed in the low bits.
func mix(seed int64, boundary, kind string, n int64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	fold := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	fold(uint64(seed))
	for _, s := range []string{boundary, kind} {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
		h ^= 0xff // separator: ("ab","c") must not collide with ("a","bc")
		h *= prime64
	}
	fold(uint64(n))
	// splitmix64 finalizer
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// at reports whether n is listed.
func at(list []int64, n int64) bool {
	for _, v := range list {
		if v == n {
			return true
		}
	}
	return false
}
