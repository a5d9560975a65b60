package prefetch

import (
	"fmt"
	"sort"
	"sync"

	"dart/internal/sim"
)

// Factory constructs a fresh, independently-stateful prefetcher instance.
// Every session in the serving engine gets its own instance, so factories
// must not share mutable state between the prefetchers they return.
type Factory func(degree int) sim.Prefetcher

// Registry maps prefetcher names to factories. The zero value is unusable;
// call NewRegistry, which seeds the built-in rule-based prefetchers. The
// serving engine extends a registry with model-backed entries ("dart",
// student networks) once those models exist.
type Registry struct {
	mu        sync.RWMutex
	factories map[string]Factory
}

// NewRegistry returns a registry holding the built-in prefetchers:
// "none", "bo", "isb", and "stride".
func NewRegistry() *Registry {
	r := &Registry{factories: make(map[string]Factory)}
	r.Register("none", func(int) sim.Prefetcher { return sim.NoPrefetcher{} })
	r.Register("bo", func(degree int) sim.Prefetcher { return NewBestOffset(degree) })
	r.Register("isb", func(degree int) sim.Prefetcher { return NewISB(degree) })
	r.Register("stride", func(degree int) sim.Prefetcher { return NewStride(degree) })
	return r
}

// Register adds (or replaces) a named factory.
func (r *Registry) Register(name string, f Factory) {
	r.mu.Lock()
	r.factories[name] = f
	r.mu.Unlock()
}

// Clone returns an independent registry with the same factories. Callers
// that need to add private entries (the serving engine registers a "dart"
// factory bound to its own model and batcher) clone first so the caller's
// registry is never mutated.
func (r *Registry) Clone() *Registry {
	r.mu.RLock()
	out := &Registry{factories: make(map[string]Factory, len(r.factories))}
	for name, f := range r.factories {
		out.factories[name] = f
	}
	r.mu.RUnlock()
	return out
}

// New instantiates a fresh prefetcher by name.
func (r *Registry) New(name string, degree int) (sim.Prefetcher, error) {
	r.mu.RLock()
	f, ok := r.factories[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("prefetch: unknown prefetcher %q (have %v)", name, r.Names())
	}
	if degree <= 0 {
		degree = 4
	}
	return f(degree), nil
}

// Names lists the registered prefetchers, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	names := make([]string, 0, len(r.factories))
	for n := range r.factories {
		names = append(names, n)
	}
	r.mu.RUnlock()
	sort.Strings(names)
	return names
}
