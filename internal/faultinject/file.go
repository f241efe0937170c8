package faultinject

import (
	"io"
	"sync/atomic"
	"syscall"
)

// SyncFile is the slice of *os.File the journal needs; File wraps any
// implementation with the plan's journal faults.
type SyncFile interface {
	io.WriteCloser
	Sync() error
	Name() string
}

// Observer receives one callback per injected fault, keyed by kind
// ("write-err", "short-write", "sync-err"). Nil observers are fine.
type Observer func(kind string)

func (o Observer) note(kind string) {
	if o != nil {
		o(kind)
	}
}

// File injects write/fsync faults in front of a SyncFile. Ordinals are
// per-wrapper and survive journal rotation only if the same wrapper is
// reused; the journal wraps each physical file as it opens it, so plans
// address ordinals within one journal generation.
type File struct {
	f       SyncFile
	faults  *FileFaults
	seed    int64
	observe Observer
	writes  atomic.Int64
	syncs   atomic.Int64
}

// WrapFile wraps f with the plan's journal faults; a plan without them
// returns f untouched.
func WrapFile(f SyncFile, plan *Plan, observe Observer) SyncFile {
	if plan == nil || plan.Journal == nil {
		return f
	}
	return &File{f: f, faults: plan.Journal, seed: plan.Seed, observe: observe}
}

// Write implements io.Writer with injected ENOSPC and short writes.
func (w *File) Write(p []byte) (int, error) {
	n := w.writes.Add(1)
	switch {
	case at(w.faults.WriteErrAt, n) || decide(w.seed, "journal", "write-err", n, w.faults.WriteErrPct):
		w.observe.note("write-err")
		return 0, syscall.ENOSPC
	case at(w.faults.ShortWriteAt, n):
		w.observe.note("short-write")
		wrote, err := w.f.Write(p[:len(p)/2])
		if err != nil {
			return wrote, err
		}
		return wrote, io.ErrShortWrite
	}
	return w.f.Write(p)
}

// Sync implements fsync with injected EIO.
func (w *File) Sync() error {
	n := w.syncs.Add(1)
	if at(w.faults.SyncErrAt, n) {
		w.observe.note("sync-err")
		return syscall.EIO
	}
	return w.f.Sync()
}

// Close and Name delegate untouched.
func (w *File) Close() error { return w.f.Close() }
func (w *File) Name() string { return w.f.Name() }
