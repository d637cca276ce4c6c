package freelist

import (
	"sync"
	"testing"
)

func TestGetPutLIFOAndBound(t *testing.T) {
	l := New[int, *int](2)
	if _, ok := l.Get(1); ok {
		t.Fatal("empty list returned an entry")
	}
	a, b, c := new(int), new(int), new(int)
	if !l.Put(1, a) || !l.Put(1, b) {
		t.Fatal("put under the bound was refused")
	}
	if l.Put(1, c) {
		t.Fatal("put over the bound was kept")
	}
	if !l.Put(2, c) {
		t.Fatal("bound is per key")
	}
	if got, _ := l.Get(1); got != b {
		t.Fatal("Get is not last-in first-out")
	}
	if got, _ := l.Get(1); got != a {
		t.Fatal("second Get returned the wrong entry")
	}
	if _, ok := l.Get(1); ok {
		t.Fatal("drained key still holds entries")
	}
	if got, ok := l.Get(2); !ok || got != c {
		t.Fatal("entry under another key was lost")
	}
}

func TestDrainAll(t *testing.T) {
	a, b := New[int, int](4), New[string, int](4)
	a.Put(1, 1)
	b.Put("x", 2)
	DrainAll()
	_, okA := a.Get(1)
	_, okB := b.Get("x")
	if okA || okB {
		t.Fatal("DrainAll left entries behind")
	}
}

func TestConcurrentUse(t *testing.T) {
	l := New[int, []byte](4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				b, ok := l.Get(i % 3)
				if !ok {
					b = make([]byte, 8)
				}
				b[0]++
				l.Put(i%3, b)
			}
		}()
	}
	wg.Wait()
	for k := 0; k < 3; k++ {
		n := 0
		for {
			if _, ok := l.Get(k); !ok {
				break
			}
			n++
		}
		if n < 1 || n > 4 {
			t.Fatalf("key %d held %d entries, want 1..4", k, n)
		}
	}
}
