package prefetch

import (
	"fmt"
	"sort"
	"sync"

	"dart/internal/dataprep"
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

// MakeOnline registers name as a factory for model-backed prefetchers that
// share one live BitmapPredictor — typically the serving engine's admission
// batcher, or an online model store that hot-swaps versions underneath.
// Each instance is a private NNPrefetcher (its own history ring and degree),
// so per-session state stays isolated while inference is routed through the
// shared predictor; pred must therefore be safe for concurrent Logits calls.
func (r *Registry) MakeOnline(name string, pred BitmapPredictor, cfg dataprep.Config, latency, storageBytes int) {
	r.Register(name, func(degree int) sim.Prefetcher {
		return NewNNPrefetcher(name, pred, cfg, latency, storageBytes, degree)
	})
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

// defaultRegistry backs the package-level convenience functions.
var defaultRegistry = NewRegistry()

// Register adds a factory to the package-level registry.
func Register(name string, f Factory) { defaultRegistry.Register(name, f) }

// New instantiates from the package-level registry.
func New(name string, degree int) (sim.Prefetcher, error) {
	return defaultRegistry.New(name, degree)
}

// Names lists the package-level registry.
func Names() []string { return defaultRegistry.Names() }
