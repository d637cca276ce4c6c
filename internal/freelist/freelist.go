// Package freelist provides the bounded, keyed free lists the simulator
// packages recycle per-run model state through (cache way arrays,
// predictor tables, log and effect arenas).
//
// A List is a mutex-guarded map of small stacks rather than a sync.Pool:
// the garbage collector never drops an entry, so whether a constructor
// reuses state — and with it the allocation count of a run — is a
// deterministic function of the release/acquire sequence. Each key holds
// at most Max entries; Put beyond that drops the object for the
// collector, which bounds the memory a list can pin.
package freelist

import "sync"

// List is a bounded free list of T keyed by K. The zero value is not
// usable; use New.
type List[K comparable, T any] struct {
	mu    sync.Mutex
	max   int
	items map[K][]T
}

// New returns an empty list holding at most max entries per key.
func New[K comparable, T any](max int) *List[K, T] {
	l := &List[K, T]{max: max, items: make(map[K][]T)}
	registry.Lock()
	registry.lists = append(registry.lists, l)
	registry.Unlock()
	return l
}

// registry records every list so DrainAll can reach them.
var registry struct {
	sync.Mutex
	lists []interface{ drain() }
}

// DrainAll empties every list in the process, so the next constructions
// allocate fresh state. Tests use it to compare recycled state against
// fresh state.
func DrainAll() {
	registry.Lock()
	defer registry.Unlock()
	for _, l := range registry.lists {
		l.drain()
	}
}

func (l *List[K, T]) drain() {
	l.mu.Lock()
	clear(l.items)
	l.mu.Unlock()
}

// Get pops the most recently released entry for key, reporting whether
// there was one.
func (l *List[K, T]) Get(key K) (T, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.items[key]
	if len(s) == 0 {
		var zero T
		return zero, false
	}
	x := s[len(s)-1]
	var zero T
	s[len(s)-1] = zero // do not pin the popped entry through the backing array
	l.items[key] = s[:len(s)-1]
	return x, true
}

// Put releases x under key. It reports false, and keeps nothing, when
// the key already holds its maximum.
func (l *List[K, T]) Put(key K, x T) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.items[key]
	if len(s) >= l.max {
		return false
	}
	l.items[key] = append(s, x)
	return true
}
