package emu

import (
	"fmt"

	"paraverser/internal/isa"
)

// MemSnapshot is an immutable view of a Memory taken by Snapshot. Pages
// are shared, never copied: every holder (the snapshotting Memory, any
// Memory built from the snapshot) treats them as copy-on-write, so a
// snapshot costs O(resident pages) map work with no byte copying. A
// snapshot's pages are read-only forever, which also makes one snapshot
// safe to materialise from many goroutines at once.
type MemSnapshot struct {
	pages map[uint64]*page
}

// Snapshot captures the memory's current contents. Every resident page
// becomes copy-on-write in the parent: the first subsequent write to a
// captured page copies it, leaving the snapshot untouched.
func (m *Memory) Snapshot() *MemSnapshot {
	snap := make(map[uint64]*page, len(m.pages))
	if m.ro == nil {
		m.ro = make(map[uint64]bool, len(m.pages))
	}
	for pn, p := range m.pages {
		snap[pn] = p
		m.ro[pn] = true
	}
	if m.lastPage != nil {
		m.lastRO = true
	}
	// Every resident page just changed permission; external PageCache
	// entries holding writable pointers must refetch through the
	// copy-on-write path.
	m.gen++
	return &MemSnapshot{pages: snap}
}

// NewMemoryFromSnapshot returns a Memory whose initial contents equal
// the snapshot, sharing its pages copy-on-write.
func NewMemoryFromSnapshot(s *MemSnapshot) *Memory {
	m := &Memory{
		pages: make(map[uint64]*page, len(s.pages)),
		ro:    make(map[uint64]bool, len(s.pages)),
	}
	for pn, p := range s.pages {
		m.pages[pn] = p
		m.ro[pn] = true
	}
	return m
}

// Image returns the program's materialised initial memory as a shared
// copy-on-write snapshot. It is built once per program and kept on the
// program itself (isa.Program.Image): programs are immutable once built
// (the experiment layer guarantees one canonical *isa.Program per
// workload name), so the data segment is materialised once instead of
// once per run — SPEC working sets run to tens of megabytes — and is
// released with the program.
//
// The image aliases prog.Data instead of copying it: every whole 4 KiB
// page of the (page-aligned) data segment is a view into the program's
// own bytes, and only a partial tail page is copied. Snapshot pages are
// read-only and copied on the first write, so no machine ever writes
// through the alias, and the data segment is held in memory once rather
// than twice.
func Image(prog *isa.Program) *MemSnapshot {
	return prog.Image(func() any { return buildImage(prog) }).(*MemSnapshot)
}

func buildImage(prog *isa.Program) *MemSnapshot {
	mem := NewMemory()
	base, data := prog.DataBase, prog.Data
	if base&(pageSize-1) == 0 {
		for len(data) >= pageSize {
			mem.pages[base>>pageBits] = (*page)(data[:pageSize])
			base += pageSize
			data = data[pageSize:]
		}
	}
	mem.WriteBytes(base, data)
	return mem.Snapshot()
}

// NewMachineShared is NewMachine with the program's initial memory
// served from its cached image (Image): the data segment is shared
// copy-on-write instead of re-copied per run.
func NewMachineShared(prog *isa.Program, seed uint64) (*Machine, error) {
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("emu: %w", err)
	}
	return newMachine(prog, NewMemoryFromSnapshot(Image(prog)), seed), nil
}
