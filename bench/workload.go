package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// workload is one closed-loop traffic shape. Every client waits for its reply
// before sending again — callers are simulated cores — so load is stated as a
// client count, not a rate. Sizes are access counts, not durations: a run
// submits rounds × sessions × accesses operations, whichever code serves them.
type workload struct {
	name, why  string
	prefetcher string // every session opens this
	table      string // model class serving: "" (none), "float", "int8", "live"
	routed     bool   // through route.Server → route.Router → 3 backends
	fanin      bool   // in-process: one driver goroutine, Engine.Submit callbacks
	sessions   int    // closed-loop clients, one session each (wire: one connection each)
	accesses   int    // per session per round
	rounds     int    // timed rounds, after one untimed warm-up round; fills runSeconds on the reference host
	segments   int    // independent trace realisations per session (see sessionTraces)
	frame      int    // accesses per request

	publish time.Duration // live: the interval of every class publish
}

var workloads = []workload{
	{
		name: "wire-stride", prefetcher: "stride", sessions: 2, accesses: 1000000, rounds: 8, segments: 64, frame: 64,
		why: "2 conns, DARTWIRE1 64-access frames, no model: wire codec + session actor + sim.Step at ~0.4us/access; model-path changes must read no change",
	},
	{
		name: "wire-dart", prefetcher: "dart", table: "float", sessions: 2, accesses: 32000, rounds: 2, segments: 64, frame: 64,
		why: "same transport, float64 table hierarchy from core.BuildDART serving: tabular/pq are >90% of the time at batch~1; wire-path changes must not move it",
	},
	{
		name: "fanin-dart-int8", prefetcher: "dart", table: "int8", fanin: true, sessions: 16, accesses: 5000, rounds: 2, segments: 10, frame: 1,
		why: "in-process, one driver keeps 16 sessions one access in flight: the admission batcher forms real batches over the int8 tables; no wire at all",
	},
	{
		name: "routed-stride", prefetcher: "stride", routed: true, sessions: 2, accesses: 1000000, rounds: 4, segments: 64, frame: 64,
		why: "wire-stride's traffic through route.Server, route.Router and 3 loopback backends: isolates the router hop and its per-session journal",
	},
	{
		name: "live-dart", prefetcher: "dart", table: "live", sessions: 2, accesses: 32000, rounds: 4, segments: 64, frame: 64, publish: time.Second,
		why: "wire-dart's traffic against a started online.Learner publishing teacher, student and dart tiers: training and hot swaps compete with serving",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// quick shrinks a workload to one round of 1/50 size (at least two frames,
// and enough accesses that most of them query the model) for the smoke test.
func (w workload) quick() workload {
	w.accesses = max(w.accesses/50/w.frame*w.frame, 128)
	w.rounds, w.segments = 1, 1
	return w
}

// frozen reports whether every session must be bit-identical to offline
// sim.Run. A live learner changes the model under the sessions by design, so
// there the check is completeness.
func (w workload) frozen() bool { return w.table != "live" }

// prepared is a workload after set-up: traces generated, model built, expected
// results computed, system started, one warm-up round done.
type prepared struct {
	w        workload
	model    *model
	sys      *system
	traces   [][]Record
	expected []SimResult // offline sim.Run of each trace; nil when not frozen
	clients  []*Client   // wire workloads: one connection per session, dialed afresh every round
	rounds   int         // rounds run so far, for fresh session ids

	lat     [][]float64 // per-session request round trips of the current round, µs
	fan     *fanIn
	submits []func(Record) error
}

// setUp is everything setup_s times.
func setUp(w workload, seed int64, size buildSize, prebuilt *model) (*prepared, error) {
	p := &prepared{w: w, model: prebuilt}
	p.traces = sessionTraces(w.sessions, w.accesses, w.segments, seed)
	if w.table != "" && p.model == nil {
		var err error
		if p.model, err = buildModel(size); err != nil {
			return nil, err
		}
	}
	if w.frozen() {
		p.expected = p.model.offlineResults(w, w.prefetcher, p.traces)
	}
	var err error
	if p.sys, err = startSystem(w, p.model); err != nil {
		return nil, err
	}
	p.lat = make([][]float64, w.sessions)
	for i := range p.lat {
		p.lat[i] = make([]float64, 0, w.accesses/w.frame+1)
	}
	if w.fanin {
		p.fan = newFanIn(w.sessions)
		p.submits = make([]func(Record) error, w.sessions)
	} else {
		p.clients = make([]*Client, w.sessions)
	}
	if warm := p.round(nil, 0, false); warm.failed > 0 {
		p.tearDown()
		return nil, fmt.Errorf("%s: warm-up round failed %d of %d accesses: %v", w.name, warm.failed, warm.accesses, warm.err)
	}
	return p, nil
}

func (p *prepared) tearDown() { p.sys.stop() }

// roundStats is what one round measured. Wall, CPU and mallocs cover only the
// driving phase: first request sent to last reply received.
type roundStats struct {
	accesses, failed int
	err              error // first failure, for the report
	wallS, cpuS      float64
	mallocs          uint64
	unversioned      int         // acks that carried model version 0
	results          []SimResult // per session, as the system closed it
	heapLiveMB       float64     // only when asked for: after a forced GC, sessions still open
}

// round opens fresh sessions (on fresh connections: a server connection keeps
// every session it ever resolved reachable until it closes, so reusing one
// would grow the heap round by round), drives every trace through them
// closed-loop, closes them and checks the results. With heap set, live heap is
// measured once the driving is over, before the sessions close.
func (p *prepared) round(rec *spanRecorder, parent int, heap bool) roundStats {
	w := p.w
	p.rounds++
	st := roundStats{accesses: w.sessions * w.accesses, results: make([]SimResult, w.sessions)}
	ids := make([]string, w.sessions)
	bad := make([]error, w.sessions)
	unversioned := make([]int, w.sessions)
	for i := range ids {
		ids[i] = fmt.Sprintf("r%d-s%d", p.rounds, i)
		p.lat[i] = p.lat[i][:0]
		if w.fanin {
			p.submits[i], bad[i] = p.sys.openFanIn(ids[i], w.prefetcher, p.fan.ack(i))
		} else if p.clients[i], bad[i] = p.sys.connect(w.frame); bad[i] == nil {
			defer p.clients[i].Close()
			bad[i] = p.clients[i].Open(ids[i], w.prefetcher, degree)
		}
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	if w.fanin {
		p.fan.run(p.traces, p.submits, p.lat, bad, rec, parent)
	} else {
		var wg sync.WaitGroup
		for i := range ids {
			if bad[i] != nil {
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.lat[i], unversioned[i], bad[i] = driveFrames(p.clients[i], ids[i], p.traces[i], w.frame, p.lat[i], rec, parent, i)
			}()
		}
		wg.Wait()
	}
	st.wallS = time.Since(t0).Seconds()
	st.cpuS = cpuSeconds() - cpu0
	runtime.ReadMemStats(&after)
	st.mallocs = after.Mallocs - before.Mallocs

	if heap {
		runtime.GC()
		runtime.ReadMemStats(&after)
		st.heapLiveMB = float64(after.HeapAlloc) / (1 << 20)
	}
	for i, id := range ids {
		var err error
		switch {
		case w.fanin:
			st.results[i], err = p.sys.closeFanIn(id)
		case p.clients[i] != nil:
			st.results[i], err = p.clients[i].CloseSession(id)
		}
		if bad[i] == nil {
			bad[i] = err
		}
		if bad[i] == nil {
			bad[i] = p.check(i, st.results[i])
		}
		if bad[i] != nil {
			st.failed += w.accesses
			if st.err == nil {
				st.err = fmt.Errorf("session %s: %w", id, bad[i])
			}
		}
		st.unversioned += unversioned[i]
	}
	return st
}

// check compares a closed session with what it must be: bit-identical to the
// offline run on frozen workloads, complete otherwise.
func (p *prepared) check(i int, got SimResult) error {
	if p.expected != nil {
		if got != p.expected[i] {
			return fmt.Errorf("served result differs from offline sim.Run:\n got  %+v\n want %+v", got, p.expected[i])
		}
		return nil
	}
	if got.Accesses != len(p.traces[i]) {
		return fmt.Errorf("session accounted %d accesses, %d submitted", got.Accesses, len(p.traces[i]))
	}
	return nil
}

// driveFrames is one closed-loop wire client: frame n+1 is sent after frame
// n's reply. Every access must be acked exactly once, in order.
func driveFrames(c *Client, id string, recs []Record, frame int, lat []float64, rec *spanRecorder, parent, conn int) ([]float64, int, error) {
	unversioned := 0
	for lo := 0; lo < len(recs); lo += frame {
		hi := min(lo+frame, len(recs))
		sp := rec.begin("request", parent, conn<<24|lo/frame+1)
		t0 := time.Now()
		res, err := c.AccessBatch(id, recs[lo:hi])
		lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e3)
		rec.end(sp)
		if err != nil {
			return lat, unversioned, err
		}
		if len(res) != hi-lo {
			return lat, unversioned, fmt.Errorf("frame at %d: %d replies for %d accesses", lo, len(res), hi-lo)
		}
		for k := range res {
			if res[k].Seq != uint64(lo+k+1) {
				return lat, unversioned, fmt.Errorf("access %d acked with seq %d", lo+k+1, res[k].Seq)
			}
			if res[k].Version == 0 {
				unversioned++
			}
		}
	}
	return lat, unversioned, nil
}

// fanIn is the in-process closed loop: one goroutine keeps one access of every
// session in flight, submitting a session's next access when the previous one
// is acked. Acks arrive on the sessions' actor goroutines and are handed to
// the driver over done, which holds one slot per session so an ack never
// blocks an actor.
type fanIn struct {
	done chan fanAck
}

type fanAck struct {
	session int
	seq     uint64
}

func newFanIn(sessions int) *fanIn {
	return &fanIn{done: make(chan fanAck, sessions)}
}

// ack returns session i's completion callback.
func (f *fanIn) ack(i int) func(seq uint64) {
	return func(seq uint64) { f.done <- fanAck{i, seq} }
}

// run drives every trace to completion. A session whose submit fails or whose
// acks arrive out of order is abandoned with its error in bad. Latency is
// client-observed: submit to the driver seeing the ack.
func (f *fanIn) run(traces [][]Record, submit []func(Record) error, lat [][]float64, bad []error, rec *spanRecorder, parent int) {
	next := make([]int, len(traces)) // accesses submitted so far
	sent := make([]time.Time, len(traces))
	spans := make([]int, len(traces))
	inFlight := 0
	send := func(i int) {
		if bad[i] != nil || next[i] == len(traces[i]) {
			return
		}
		spans[i] = rec.begin("request", parent, i<<24|next[i]+1)
		sent[i] = time.Now()
		if err := submit[i](traces[i][next[i]]); err != nil {
			bad[i] = err
			return
		}
		next[i]++
		inFlight++
	}
	for i := range traces {
		send(i)
	}
	for inFlight > 0 {
		a := <-f.done
		inFlight--
		i := a.session
		lat[i] = append(lat[i], float64(time.Since(sent[i]).Nanoseconds())/1e3)
		rec.end(spans[i])
		if a.seq != uint64(next[i]) {
			bad[i] = fmt.Errorf("access %d acked with seq %d", next[i], a.seq)
		}
		send(i)
	}
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
