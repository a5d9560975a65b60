package route

import (
	"errors"
	"fmt"

	"dart/internal/serve"
)

// This file is the control-plane fan-out: the router answers the non-session
// verbs by asking its backends and merging the replies (docs/PROTOCOL.md,
// "Routed serving" section, specifies the merged shapes).

// forEach calls fn once per configured backend in config order, handing it a
// pooled connection. Unreachable backends get fn(nil, err) so the caller can
// report them without aborting the fan-out.
func (r *Router) forEach(fn func(b *backend, c *serve.Client, dialErr error)) {
	for _, b := range r.order {
		c, err := r.checkout(b)
		if err != nil {
			r.markFailure(b, err)
			fn(b, nil, err)
			continue
		}
		fn(b, c, nil)
		r.checkin(b, c)
	}
}

// do sends req on c and turns an ok:false reply into an error.
func do(c *serve.Client, req serve.Request) (serve.Reply, error) {
	rep, err := c.Do(req)
	if err == nil && !rep.OK {
		err = errors.New(rep.Err)
	}
	return rep, err
}

// Stats fans the stats verb to every backend and merges the replies.
func (r *Router) Stats() (serve.Reply, error) {
	return r.merge(serve.Request{Op: "stats"})
}

// merge fans req to every backend and merges the stats replies: counters
// sum, MaxBatch takes the max, and one BackendStat row per backend reports
// health, per-backend session ownership, and the dial/verb error if any.
func (r *Router) merge(req serve.Request) (serve.Reply, error) {
	owned := make(map[string]int)
	r.mu.Lock()
	for _, s := range r.sessions {
		if o := s.getOwner(); o != "" {
			owned[o]++
		}
	}
	routed := len(r.sessions)
	r.mu.Unlock()

	merged := &serve.StatsReply{}
	r.forEach(func(b *backend, c *serve.Client, err error) {
		row := serve.BackendStat{Name: b.name, Addr: b.addr, Sessions: owned[b.name],
			Healthy: err == nil && b.isHealthy()}
		var rep serve.Reply
		if err == nil {
			rep, err = do(c, req)
		}
		if err == nil && rep.Stats == nil {
			err = errors.New("route: stats reply carries no stats")
		}
		if err != nil {
			row.Err = err.Error()
			merged.Backends = append(merged.Backends, row)
			return
		}
		merged.Accepted += rep.Stats.Accepted
		merged.Batches += rep.Stats.Batches
		merged.Batched += rep.Stats.Batched
		merged.MaxBatch = max(merged.MaxBatch, rep.Stats.MaxBatch)
		merged.Backends = append(merged.Backends, row)
	})
	// The router's own view of session count wins: backends may briefly hold
	// a stale copy around a migration, and routed sessions are the truth the
	// client cares about.
	merged.Sessions = routed
	return serve.Reply{OK: true, Stats: merged}, nil
}

// firstHealthy forwards one request to the first healthy backend that
// answers it, passing its reply (ok or not) through verbatim.
func (r *Router) firstHealthy(req serve.Request) (serve.Reply, error) {
	lastErr := errNoBackends
	for _, b := range r.order {
		if !b.isHealthy() {
			continue
		}
		c, err := r.checkout(b)
		if err != nil {
			r.markFailure(b, err)
			lastErr = err
			continue
		}
		rep, err := c.Do(req)
		r.checkin(b, c)
		if err != nil {
			lastErr = err
			continue
		}
		return rep, nil
	}
	return serve.Reply{}, lastErr
}

// fanAll sends one mutating verb (swap, rollback) to every healthy backend.
// All must succeed — a half-swapped fleet would serve different versions
// per shard — and the merged reply carries the highest version.
func (r *Router) fanAll(req serve.Request) (serve.Reply, error) {
	var (
		out     serve.Reply
		applied int
		firstE  error
	)
	r.forEach(func(b *backend, c *serve.Client, err error) {
		if err != nil || !b.isHealthy() {
			return
		}
		rep, err := do(c, req)
		if err != nil {
			if firstE == nil {
				firstE = fmt.Errorf("route: backend %s: %w", b.name, err)
			}
			return
		}
		applied++
		if rep.Version >= out.Version {
			out = rep
		}
	})
	if firstE != nil {
		return serve.Reply{}, firstE
	}
	if applied == 0 {
		return serve.Reply{}, errNoBackends
	}
	out.OK = true
	return out, nil
}

// Control answers one non-hot verb by its row in serve.Verbs: session verbs
// hit the routing table, and the others fan out as the row's Route says. A
// verb added to serve.Verbs is routed with no edit here. opened tracks
// sessions owned by the calling connection for crash reclaim, exactly like
// serve.Server.
func (r *Router) Control(req serve.Request, opened map[string]struct{}) serve.Reply {
	v, ok := serve.Verbs.Lookup(req.Op)
	if !ok {
		return serve.Reply{OK: false, Err: "route: unknown op " + req.Op}
	}
	var rep serve.Reply
	var err error
	switch v.Route {
	case serve.RouteSession:
		return v.Session(r, req, opened)
	case serve.RouteHot:
		err = errors.New("route: hot verb in a control frame: use access/batch frames")
	case serve.RouteMerge:
		rep, err = r.merge(req)
	case serve.RouteOne:
		rep, err = r.firstHealthy(req)
	case serve.RouteAll:
		rep, err = r.fanAll(req)
	}
	if err != nil {
		return serve.Reply{OK: false, Session: req.Session, Err: err.Error()}
	}
	return rep
}
