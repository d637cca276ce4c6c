package core

import (
	"paraverser/internal/emu"
	"paraverser/internal/freelist"
)

// Per-run state recycling (DESIGN.md §16). A core.Run builds a whole
// system — main and checker cores with their caches and predictors, the
// shared LLC, per-lane log and effect arenas — and most of that state is
// capacity the run never touches. Run is the single owner boundary:
// after a successful collect it releases everything below to free lists,
// and the constructors draw from those lists first. Caches and branch
// units recycle through their own packages (cpu.Core.Release); the
// arenas this package owns recycle here.

// Log-arena size classes, in entries: a lane's segment log and its
// pipelined spares, and a chunk-replay accumulator.
const (
	laneLogEntries  = 1024
	chunkLogEntries = defaultChunkSegments * 1024
)

// logArena is one segment-log backing: entries and the MemRec arena
// their Ops slices point into.
type logArena struct {
	entries []Entry
	ops     []MemRec
}

// logArenas holds released log arenas per size class; effectBatches
// holds released effect batches per length. The bounds cover the lanes
// and checkers of a few concurrent runs.
var (
	logArenas     = freelist.New[int, logArena](32)
	effectBatches = freelist.New[int, []emu.Effect](32)
)

// newLogArena returns an empty log arena of size class n, recycled when
// one is available. Contents past len are never read (every use
// truncates and appends), so a recycled arena needs no clearing.
func newLogArena(n int) logArena {
	if a, ok := logArenas.Get(n); ok {
		return a
	}
	return logArena{entries: make([]Entry, 0, n), ops: make([]MemRec, 0, n)}
}

// releaseLogArena returns a log arena under size class n.
func releaseLogArena(n int, entries []Entry, ops []MemRec) {
	if entries != nil {
		logArenas.Put(n, logArena{entries: entries[:0], ops: ops[:0]})
	}
}

// newEffectBatch returns a zeroed effect batch of length n, recycled
// when one is available.
func newEffectBatch(n int) []emu.Effect {
	if b, ok := effectBatches.Get(n); ok {
		clear(b)
		return b
	}
	return make([]emu.Effect, n)
}

// releaseEffectBatch returns an effect batch (nil is ignored).
func releaseEffectBatch(b []emu.Effect) {
	if b != nil {
		effectBatches.Put(len(b), b)
	}
}

// release returns every recyclable piece of a finished system to its
// free list: each lane's main core and log/effect arenas, each checker
// core and scratch batch, and the shared LLC. Only core.Run calls it,
// after a successful collect has joined every pending check, so nothing
// still references the state.
// Released objects nil their internal pointers; any later use panics.
func (s *System) release() {
	for _, l := range s.lanes {
		l.main.Release()
		l.main = nil
		releaseLogArena(laneLogEntries, l.entries, l.ops)
		for i := range l.spareEntries {
			releaseLogArena(laneLogEntries, l.spareEntries[i], l.spareOps[i])
		}
		l.entries, l.ops, l.spareEntries, l.spareOps = nil, nil, nil, nil
		releaseEffectBatch(l.batch)
		l.batch = nil
		if l.chunk != nil {
			releaseLogArena(chunkLogEntries, l.chunk.entries, l.chunk.ops)
			l.chunk = nil
		}
		if l.alloc != nil {
			for _, ck := range l.alloc.Checkers() {
				ck.Core.Release()
				ck.Core = nil
				releaseEffectBatch(ck.scratch.batch)
				ck.scratch.batch = nil
			}
		}
	}
	s.l3.Release()
	s.l3 = nil
}
