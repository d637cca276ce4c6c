package emu

import (
	"bytes"
	"encoding/binary"
	"testing"

	"paraverser/internal/asm"
	"paraverser/internal/isa"
)

// TestMemorySnapshotWriteIsolation: writes after a snapshot must not be
// visible through the snapshot, and vice versa.
func TestMemorySnapshotWriteIsolation(t *testing.T) {
	m := NewMemory()
	if err := m.Store(0x1000, 8, 111); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()

	if err := m.Store(0x1000, 8, 222); err != nil {
		t.Fatal(err)
	}
	view := NewMemoryFromSnapshot(snap)
	if got, _ := view.Load(0x1000, 8); got != 111 {
		t.Errorf("snapshot view sees parent write: got %d, want 111", got)
	}
	if got, _ := m.Load(0x1000, 8); got != 222 {
		t.Errorf("parent lost its own write: got %d, want 222", got)
	}

	// And the other direction: a write through a materialised view stays
	// private to that view.
	if err := view.Store(0x1000, 8, 333); err != nil {
		t.Fatal(err)
	}
	view2 := NewMemoryFromSnapshot(snap)
	if got, _ := view2.Load(0x1000, 8); got != 111 {
		t.Errorf("second view sees sibling write: got %d, want 111", got)
	}
}

// TestMemorySnapshotPageCacheCoherent: the one-entry page cache must not
// hand the write path a page that became read-only at snapshot time.
func TestMemorySnapshotPageCacheCoherent(t *testing.T) {
	m := NewMemory()
	if err := m.Store(0x2000, 8, 7); err != nil {
		t.Fatal(err)
	}
	// Load caches the page, Snapshot marks it read-only, the next store
	// must still copy-on-write rather than trust the cached entry.
	if _, err := m.Load(0x2000, 8); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if err := m.Store(0x2000, 8, 8); err != nil {
		t.Fatal(err)
	}
	if got, _ := NewMemoryFromSnapshot(snap).Load(0x2000, 8); got != 7 {
		t.Errorf("snapshot corrupted through cached page: got %d, want 7", got)
	}
	// Same hazard on the view side: materialise, read (caches an ro
	// page), then write through the cache.
	view := NewMemoryFromSnapshot(snap)
	if _, err := view.Load(0x2000, 8); err != nil {
		t.Fatal(err)
	}
	if err := view.Store(0x2000, 8, 9); err != nil {
		t.Fatal(err)
	}
	if got, _ := NewMemoryFromSnapshot(snap).Load(0x2000, 8); got != 7 {
		t.Errorf("snapshot corrupted through view's cached page: got %d, want 7", got)
	}
}

// runToEnd drives a machine to completion and returns the result word.
func runToEnd(t *testing.T, m *Machine, prog *isa.Program) uint64 {
	t.Helper()
	if _, err := m.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	got, _ := m.Mem.Load(prog.DataBase, 8)
	return got
}

// TestMachineSharedMatchesPrivate: a machine over the shared image cache
// must execute identically to one with a privately materialised data
// segment, and two shared machines must not observe each other's stores.
func TestMachineSharedMatchesPrivate(t *testing.T) {
	prog := buildSum(50)
	priv, err := NewMachine(prog, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := runToEnd(t, priv, prog)

	a, err := NewMachineShared(prog, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := runToEnd(t, a, prog); got != want {
		t.Errorf("shared run = %d, private = %d", got, want)
	}
	if a.Harts[0].State != priv.Harts[0].State {
		t.Error("shared and private end states differ")
	}

	// A second machine from the same image starts from pristine contents
	// despite the first one's store to the result word.
	b, err := NewMachineShared(prog, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := b.Mem.Load(prog.DataBase, 8); got != 0 {
		t.Errorf("fresh shared machine sees sibling store: %d", got)
	}
	if got := runToEnd(t, b, prog); got != want {
		t.Errorf("second shared run = %d, want %d", got, want)
	}
}

// TestImageAliasesProgramDataReadOnly: the shared program image aliases
// the whole pages of prog.Data instead of copying them, and a run that
// stores into those pages (and into the copied tail page) must leave
// both prog.Data and a second machine's view untouched.
func TestImageAliasesProgramDataReadOnly(t *testing.T) {
	b := asm.New("image-alias")
	pat := make([]byte, 2*pageSize+100)
	for i := range pat {
		pat[i] = byte(i*7 + 1)
	}
	b.Bytes(pat)
	db := int64(isa.DefaultDataBase)
	b.Li(5, db)
	b.Li(6, 0x5555)
	b.St(8, 6, 5, 8) // first whole page
	b.Li(5, db+pageSize+24)
	b.St(8, 6, 5, 0) // second whole page
	b.Li(5, db+2*pageSize+16)
	b.St(8, 6, 5, 0) // partial tail page
	b.Halt()
	prog := b.MustBuild()
	orig := append([]byte(nil), prog.Data...)

	img := Image(prog)
	if got, want := img.pages[prog.DataBase>>pageBits], (*page)(prog.Data[:pageSize]); got != want {
		t.Fatal("image copied a whole data page instead of aliasing prog.Data")
	}
	addrs := []uint64{prog.DataBase + 8, prog.DataBase + pageSize + 24, prog.DataBase + 2*pageSize + 16}
	m1, err := NewMachineShared(prog, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	for _, a := range addrs {
		if got, _ := m1.Mem.Load(a, 8); got != 0x5555 {
			t.Errorf("store at %#x lost: got %#x", a, got)
		}
	}
	if !bytes.Equal(prog.Data, orig) {
		t.Fatal("a run's stores reached prog.Data through the image")
	}
	m2, err := NewMachineShared(prog, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range addrs {
		off := a - prog.DataBase
		want := binary.LittleEndian.Uint64(orig[off:])
		if got, _ := m2.Mem.Load(a, 8); got != want {
			t.Errorf("second machine sees %#x at %#x, want the initial %#x", got, a, want)
		}
	}
}
