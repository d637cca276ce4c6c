package branch

import (
	"math/rand"
	"testing"

	"paraverser/internal/isa"
)

func TestBimodalLearnsBias(t *testing.T) {
	b := NewBimodal(10)
	pc := uint64(0x40)
	for i := 0; i < 10; i++ {
		b.Update(pc, true)
	}
	if !b.Predict(pc) {
		t.Error("bimodal failed to learn always-taken")
	}
	for i := 0; i < 10; i++ {
		b.Update(pc, false)
	}
	if b.Predict(pc) {
		t.Error("bimodal failed to relearn always-not-taken")
	}
}

func TestCounterSaturates(t *testing.T) {
	c := counter(0)
	for i := 0; i < 10; i++ {
		c = c.train(true)
	}
	if c != 3 {
		t.Errorf("counter = %d, want 3", c)
	}
	for i := 0; i < 10; i++ {
		c = c.train(false)
	}
	if c != 0 {
		t.Errorf("counter = %d, want 0", c)
	}
}

// runPattern feeds a repeating direction pattern and returns the accuracy
// over the last half (after warmup).
func runPattern(p Predictor, pattern []bool, iters int) float64 {
	pc := uint64(0x1234)
	correct, total := 0, 0
	for i := 0; i < iters; i++ {
		taken := pattern[i%len(pattern)]
		pred := p.Predict(pc)
		if i > iters/2 {
			total++
			if pred == taken {
				correct++
			}
		}
		p.Update(pc, taken)
	}
	return float64(correct) / float64(total)
}

func TestTAGELearnsLoopPattern(t *testing.T) {
	// A loop branch: taken 15 times, not-taken once. TAGE should exceed
	// 95% accuracy; bimodal alone sits near 15/16.
	pattern := make([]bool, 16)
	for i := range pattern {
		pattern[i] = i != 15
	}
	acc := runPattern(NewDefaultTAGE(), pattern, 4000)
	if acc < 0.95 {
		t.Errorf("TAGE loop accuracy %.3f, want >= 0.95", acc)
	}
}

func TestTAGELearnsAlternating(t *testing.T) {
	acc := runPattern(NewDefaultTAGE(), []bool{true, false}, 2000)
	if acc < 0.98 {
		t.Errorf("TAGE alternating accuracy %.3f, want >= 0.98", acc)
	}
}

func TestTAGERandomIsHard(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pattern := make([]bool, 4001) // odd length, random content
	for i := range pattern {
		pattern[i] = rng.Intn(2) == 0
	}
	acc := runPattern(NewDefaultTAGE(), pattern, 4000)
	if acc > 0.75 {
		t.Errorf("TAGE random accuracy %.3f suspiciously high", acc)
	}
}

func TestSmallTAGEWorseThanBigOnLongPattern(t *testing.T) {
	// A long loop needs long history; the small predictor should do no
	// better than the big one.
	pattern := make([]bool, 48)
	for i := range pattern {
		pattern[i] = i != 47
	}
	big := runPattern(NewDefaultTAGE(), pattern, 8000)
	small := runPattern(NewSmallTAGE(), pattern, 8000)
	if small > big+0.02 {
		t.Errorf("small TAGE (%.3f) beats big (%.3f) on long pattern", small, big)
	}
}

func TestBTB(t *testing.T) {
	b := NewBTB(8)
	if _, ok := b.Lookup(0x100); ok {
		t.Error("empty BTB hit")
	}
	b.Update(0x100, 0x200)
	tgt, ok := b.Lookup(0x100)
	if !ok || tgt != 0x200 {
		t.Errorf("BTB lookup = %#x, %v; want 0x200, true", tgt, ok)
	}
	// PC 0 must work despite the zero-means-empty encoding.
	b.Update(0, 0x300)
	if tgt, ok := b.Lookup(0); !ok || tgt != 0x300 {
		t.Error("BTB fails for pc 0")
	}
}

func TestUnitResolveTracksStats(t *testing.T) {
	u := NewUnit(NewBimodal(10), 8)
	// First resolve of a taken branch: direction unknown (counter weak
	// not-taken) -> mispredict.
	u.Resolve(isa.OpBEQ, 0x40, true, 0x80)
	if u.Stats.Lookups != 1 || u.Stats.Mispredicts != 1 {
		t.Errorf("stats %+v after first taken branch", u.Stats)
	}
	// Train until predicted taken, with BTB target now known.
	for i := 0; i < 5; i++ {
		u.Resolve(isa.OpBEQ, 0x40, true, 0x80)
	}
	before := u.Stats.Mispredicts
	u.Resolve(isa.OpBEQ, 0x40, true, 0x80)
	if u.Stats.Mispredicts != before {
		t.Error("trained branch still mispredicting")
	}
}

func TestUnitIndirectTargetChange(t *testing.T) {
	u := NewUnit(NewBimodal(10), 8)
	u.Resolve(isa.OpJALR, 0x40, true, 0x100) // cold: miss
	if !u.Resolve(isa.OpJALR, 0x40, true, 0x100) {
		t.Error("repeated indirect target should predict")
	}
	if u.Resolve(isa.OpJALR, 0x40, true, 0x180) {
		t.Error("changed indirect target should mispredict")
	}
}

func TestUnitDirectJumpPredictsAfterFirst(t *testing.T) {
	u := NewUnit(NewBimodal(10), 8)
	if u.Resolve(isa.OpJAL, 0x40, true, 0x90) {
		t.Error("cold direct jump should miss BTB")
	}
	if !u.Resolve(isa.OpJAL, 0x40, true, 0x90) {
		t.Error("warm direct jump should hit")
	}
}

func TestMispredictRate(t *testing.T) {
	s := Stats{}
	if s.MispredictRate() != 0 {
		t.Error("empty stats rate != 0")
	}
	s.Lookups, s.Mispredicts = 100, 7
	if got := s.MispredictRate(); got != 0.07 {
		t.Errorf("rate = %v, want 0.07", got)
	}
}

// TestRecycledUnitMatchesFresh: a sized unit drawn from the free list
// after an earlier owner trained it must predict exactly like a fresh
// one, and a released unit must panic on use.
func TestRecycledUnitMatchesFresh(t *testing.T) {
	trace := func(u *Unit, seed uint64) string {
		var b []byte
		x := seed
		for i := 0; i < 20000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			pc := (x >> 33) % 512
			op := isa.OpBEQ
			switch x >> 60 {
			case 0:
				op = isa.OpJALR
			case 1:
				op = isa.OpJAL
			}
			ok := u.Resolve(op, pc, x>>62 != 0, pc+(x>>40)%8)
			b = append(b, byte('0'+btoi(ok)))
		}
		return string(b)
	}
	for _, big := range []bool{false, true} {
		fresh := NewTAGEUnit(big)
		want := trace(fresh, 1)
		trace(fresh, 99) // dirty every table
		dir := fresh.Dir
		fresh.Release()
		u := NewTAGEUnit(big)
		if u.Dir != dir {
			t.Fatalf("big=%v: NewTAGEUnit did not recycle the released tables", big)
		}
		if got := trace(u, 1); got != want {
			t.Fatalf("big=%v: recycled unit predicts differently from a fresh one", big)
		}
		if u.Stats.Lookups != 20000 {
			t.Fatalf("big=%v: recycled unit kept stale statistics: %+v", big, u.Stats)
		}
		u.Release()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("big=%v: Resolve after Release did not panic", big)
				}
			}()
			u.Resolve(isa.OpBEQ, 4, true, 8)
		}()
	}
}

func btoi(v bool) int {
	if v {
		return 1
	}
	return 0
}
