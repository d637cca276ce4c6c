package cachesim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// recycleConfig has a geometry no other test uses, so the free list
// under it holds exactly what these tests release.
func recycleConfig() Config {
	return Config{Name: "recycle", SizeBytes: 8 << 10, Ways: 4, LineBytes: 64, HitCycles: 2, MSHRs: 4}
}

// traceBytes is the address range the traces touch: twice the cache,
// so hits, conflict misses and dirty evictions all occur.
const traceBytes = 16 << 10

// drive probes every line of the trace range (a recycled cache's stale
// sets must read as empty), then runs a seeded random trace of
// accesses, probes, log appends, log resets and invalidations against c,
// and renders every outcome and the final statistics.
func drive(c *Cache, seed int64, ops int) string {
	r := rand.New(rand.NewSource(seed))
	var b strings.Builder
	for addr := uint64(0); addr < traceBytes; addr += 64 {
		fmt.Fprintf(&b, "%d", btoi(c.Probe(addr)))
	}
	b.WriteString("\n")
	for i := 0; i < ops; i++ {
		addr := uint64(r.Intn(traceBytes))
		switch k := r.Intn(100); {
		case k < 70:
			fmt.Fprintf(&b, "A%d", btoi(c.Access(addr, r.Intn(3) == 0)))
		case k < 80:
			fmt.Fprintf(&b, "P%d", btoi(c.Probe(addr)))
		case k < 95:
			fmt.Fprintf(&b, "L%d", btoi(c.LogAppendLine()))
		case k < 99:
			c.LogReset()
			b.WriteString("R")
		default:
			c.InvalidateAll()
			b.WriteString("I")
		}
	}
	fmt.Fprintf(&b, "\nstats=%+v log=%d", c.Stats, c.LogLines())
	return b.String()
}

func btoi(v bool) int {
	if v {
		return 1
	}
	return 0
}

// TestRecycledCacheMatchesFresh: a cache recycled through Release/New —
// an epoch bump over sets an earlier trace dirtied, filled with log
// lines and invalidated — must be indistinguishable from a newly
// allocated cache: every hit/miss, probe and log outcome, writeback and
// log eviction equal. The wrap case forces the epoch counter around
// 2^32, where stamps from the earlier life would alias the new epoch
// unless the arrays are cleared.
func TestRecycledCacheMatchesFresh(t *testing.T) {
	cfg := recycleConfig()
	want := drive(MustNew(cfg), 2, 4000)
	for _, wrap := range []bool{false, true} {
		for seedA := int64(10); seedA < 14; seedA++ {
			old := MustNew(cfg)
			drive(old, seedA, 3000)
			for addr := uint64(0); addr < traceBytes; addr += 64 {
				old.Access(addr, true) // leave every set full of dirty lines
			}
			if wrap {
				// Pretend 2^32-2 recycles passed since the trace stamped
				// its sets with the current epoch.
				for i, st := range old.stamp {
					if st == old.epoch {
						old.stamp[i] = 1
					}
				}
				old.epoch = ^uint32(0)
			}
			ways := &old.ways[0]
			old.Release()
			c := MustNew(cfg)
			if &c.ways[0] != ways {
				t.Fatalf("wrap=%v seed %d: New did not recycle the released arrays", wrap, seedA)
			}
			if wrap && c.epoch != 1 {
				t.Fatalf("wrap: epoch %d after wrap-around, want 1", c.epoch)
			}
			if got := drive(c, 2, 4000); got != want {
				t.Fatalf("wrap=%v seed %d: recycled cache diverged from a fresh one\n got %s\nwant %s", wrap, seedA, got, want)
			}
			c.Release()
		}
	}
}

// TestReleasedCachePanicsOnUse: a released cache gives its arrays to the
// next owner, so any further access must fail loudly rather than share
// state with it.
func TestReleasedCachePanicsOnUse(t *testing.T) {
	c := MustNew(recycleConfig())
	c.Release()
	c.Release() // idempotent
	defer func() {
		if recover() == nil {
			t.Fatal("access after Release did not panic")
		}
	}()
	c.Access(0x40, false)
}
