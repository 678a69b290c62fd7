package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/runstore"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/uarch"
)

// simJob is one (machine, workload) simulation request of a Lab (see
// Lab.pendingJobs), tagged with its RunKey and the callback that records
// the result into its lab. A combined batch (a seed sweep's per-seed
// labs) thereby routes every result to its own lab while sharing one
// worker pool.
type simJob struct {
	machine *uarch.Machine
	spec    *trace.Spec // the lab suite's own spec, shared by every machine
	run     RunKey
	record  func(RunKey, *sim.Result)
}

// missJob is a simJob with its keys, and once it misses the store, its
// place in the dispatch.
type missJob struct {
	simJob
	key      string // run-store key; "" when no store is configured
	specHash string
	shared   *sharedTrace // non-nil when the spec's trace is shared
	walk     int          // index of the job's tape in shared; -1 to run live
	// twins are the later misses of the same spec whose machines equal
	// this job's apart from Name (see foldTwins): they take this job's
	// Result instead of being dispatched.
	twins []missJob
}

// sharedTrace is one workload's materialized µop stream, shared across
// every machine that simulates it in a single runSimJobs call. The
// materializer pipeline produces the stream ahead of the workers and
// closes ready; workers replay it through independent cursors, and the
// last user hands the backing store back for recycling. buf is nil
// after ready closes when materialization was aborted (cancellation or
// an earlier failure).
//
// Machines that share a walk key (uarch.Machine.WalkKey) meet the same
// cache, TLB and branch outcomes on the stream. For every walk key that
// two or more of the workload's jobs share, walks holds one of those
// machines, and the materializer records its walk of the stream into
// the tape of the same index; those jobs replay only the timing core.
type sharedTrace struct {
	spec  trace.Spec
	walks []*uarch.Machine
	ready chan struct{}
	buf   *trace.Buffer
	tapes []*sim.Tape // tapes[i] holds walks[i]'s walk of buf
	left  atomic.Int64
}

// traceSlot is the recyclable storage of one live shared trace: the µop
// backing store and the tapes recorded over it (there may be more tapes
// than the current trace has walks; the spares wait for a later one).
type traceSlot struct {
	ops   []trace.MicroOp
	tapes []*sim.Tape
}

// runSimJobs is the one simulation path, running the pending jobs of a
// Lab (Lab.SimulateContext) or of several (a seed sweep's combined
// batch) — and so under every kind, the Provider's fits and the async
// Jobs engine: every job is first resolved against the run store (when
// one is configured in opts), and only the misses are dispatched to a
// bounded worker pool, their results written back to the store as
// workers finish. Each job's record is invoked once it completes; calls
// are never concurrent, so record may touch shared state without
// further locking. opts.Progress, when set, is additionally invoked
// once per completed job with its RunKey and sourcing (store hit vs
// simulated), under the same serialization guarantee.
//
// The store lookup is one file read and one decode per job
// (runstore.Store.GetResult), spread over the same workers goroutines
// that simulate, with each job's result kept at its index. A serial
// pass over them then records the hits, reports their progress and
// collects the misses, all in job order, so what a warm batch records
// and reports does not depend on the worker count. Keys are built from
// one hash per distinct machine and spec of the batch (see keyJobs),
// and the spec hash also groups the misses.
//
// Misses of one spec whose machines differ only in Name (a plan's cell
// at the base's own values, which is the base under another name) are
// one simulation: the first is dispatched and the rest, its twins, take
// its Result. Each twin is still written to the store under its own
// key, recorded, reported to opts.Progress and counted in
// SimStats.Simulated, so the counts and the store are those of running
// every miss; only the work is not repeated. The twins share one
// *sim.Result, which nothing mutates once recorded.
//
// Workloads simulated on more than one machine (a campaign's machine
// grid, a plan's cells) share one materialized trace.Buffer per spec:
// the stream is generated once and replayed per machine, instead of
// regenerated per (machine, workload) pair. Among those machines, each
// group that shares a walk key (a plan's rob, mshrs, width, memlat or
// depth cells) also shares one walk of the stream through the caches,
// TLBs and branch predictor: the materializer records it into a sim.Tape
// right after producing the buffer, and each machine of the group
// replays only the timing core from it (sim.Simulator.Replay,
// struct-equal to a live run). A walk key used by a single job runs
// live, as every job of a campaign's distinct stock machines does. A
// spec only one job misses (every job of a one-machine seed sweep or
// provider fit) is materialized by the worker that runs it, into a
// backing store that worker refills from job to job, so those batches
// generate on every worker at once. Misses are dispatched workload-major
// (all machines of one workload adjacently) regardless of the order jobs
// were enqueued in, and a dedicated materializer goroutine produces the
// shared buffers in that same order, ahead of the workers — cells
// simulate while the next workload's stream generates instead of
// stalling on it. At most workers+1 shared streams are live at once —
// every worker replaying a distinct buffer while the materializer fills
// the next — so the pipeline's memory is bounded at
// ≈(workers+1)·56·NumOps bytes, plus one unshared store per worker that
// runs an unshared job: the materializer blocks until a slot frees, and
// the last user of each buffer returns its backing store for the next
// workload to refill in place, so a long plan touches a bounded set of
// stores instead of allocating one per workload. Results are
// deterministic regardless of scheduling and sourcing (every buffer of a
// spec holds the same stream, and a cached Result is exactly what
// re-simulating would produce).
//
// Cancelling ctx stops the store lookup and the dispatch of new
// simulations: jobs already running on a worker finish (and are
// recorded and stored), everything still pending is abandoned, and
// ctx.Err() is returned. A partially cancelled run therefore leaves the
// store consistent — every persisted entry is a complete, exact result
// — so a follow-up run resumes warm. The returned SimStats reports how
// many runs each path served and how many µop streams were actually
// generated.
func runSimJobs(ctx context.Context, jobs []simJob, opts Options) (SimStats, error) {
	var st SimStats
	store := opts.Store
	// Workers can reach here unclamped (callers that build Options by
	// hand skip withDefaults); a non-positive count would spawn no
	// workers and deadlock the feed loop, so derive it the same way
	// withDefaults does.
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	progress := func(run RunKey, hit bool) {
		if opts.Progress != nil {
			opts.Progress(run, hit)
		}
	}
	keyed, hits, err := keyJobs(ctx, jobs, store, workers)
	if err != nil {
		return st, err
	}
	var misses []missJob
	for i, mj := range keyed {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		if hits != nil && hits[i] != nil {
			mj.record(mj.run, hits[i])
			st.Hits++
			progress(mj.run, true)
			continue
		}
		misses = append(misses, mj)
	}
	if len(misses) == 0 {
		return st, nil
	}
	misses = foldTwins(misses)

	// Group the misses workload-major: jobs arrive machine-major (every
	// workload of machine 1, then machine 2, …), which would keep every
	// shared buffer alive across the whole run; making each spec's uses
	// adjacent bounds the live buffers and gives the materializer its
	// production order.
	type walkOf struct {
		spec string
		walk uarch.WalkKey
	}
	first := make(map[string]int, len(misses))
	uses := make(map[string]int, len(misses))
	walkKeys := make(map[*uarch.Machine]uarch.WalkKey)
	walkUses := make(map[walkOf]int, len(misses))
	for i := range misses {
		h := misses[i].specHash
		if _, ok := first[h]; !ok {
			first[h] = i
		}
		uses[h]++
		m := misses[i].machine
		if _, ok := walkKeys[m]; !ok {
			walkKeys[m] = m.WalkKey()
		}
		walkUses[walkOf{h, walkKeys[m]}]++
	}
	sort.SliceStable(misses, func(a, b int) bool {
		return first[misses[a].specHash] < first[misses[b].specHash]
	})
	var groups []*sharedTrace // shared workloads in dispatch order
	buffers := make(map[string]*sharedTrace)
	tapeIdx := make(map[walkOf]int)
	for i := range misses {
		misses[i].walk = -1
		h := misses[i].specHash
		if uses[h] <= 1 {
			continue
		}
		sh, ok := buffers[h]
		if !ok {
			sh = &sharedTrace{spec: *misses[i].spec, ready: make(chan struct{})}
			sh.left.Store(int64(uses[h]))
			buffers[h] = sh
			groups = append(groups, sh)
		}
		misses[i].shared = sh
		w := walkOf{h, walkKeys[misses[i].machine]}
		if walkUses[w] < 2 {
			continue
		}
		idx, ok := tapeIdx[w]
		if !ok {
			idx = len(sh.walks)
			tapeIdx[w] = idx
			sh.walks = append(sh.walks, misses[i].machine)
		}
		misses[i].walk = idx
	}

	var (
		mu        sync.Mutex
		firstErr  error
		abort     = make(chan struct{}) // closed on the first failure
		wg        sync.WaitGroup
		matWG     sync.WaitGroup
		traceGens atomic.Int64
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
			close(abort)
		}
		mu.Unlock()
	}
	// complete stores, records and reports one simulated job's Result.
	complete := func(j *missJob, res *sim.Result) {
		if j.key != "" {
			if err := store.PutResult(j.key, res); err != nil {
				fail(fmt.Errorf("experiments: %s on %s: %w", j.spec.Name, j.machine.Name, err))
				return
			}
		}
		mu.Lock()
		j.record(j.run, res)
		st.Simulated++
		progress(j.run, false)
		mu.Unlock()
	}

	// Materializer pipeline. freeSlots carries the recyclable backing
	// stores and tapes (empty until first use); its capacity is the
	// live-buffer bound. The loop always closes every group's ready
	// channel so no worker blocks forever, even when aborting.
	var freeSlots chan traceSlot
	if len(groups) > 0 {
		liveBufs := min(workers+1, len(groups))
		freeSlots = make(chan traceSlot, liveBufs)
		for i := 0; i < liveBufs; i++ {
			freeSlots <- traceSlot{}
		}
		matWG.Add(1)
		go func() {
			defer matWG.Done()
			for _, sh := range groups {
				select {
				case slot := <-freeSlots:
					// File-aware: generated specs expand through the
					// generator, file-backed ones decode from disk with
					// their content hash verified. On failure the slot
					// goes back so later groups still materialize.
					buf, err := trace.MaterializeSpecInto(sh.spec, slot.ops)
					if err != nil {
						err = fmt.Errorf("experiments: materialize %s: %w", sh.spec.Name, err)
					} else if err = recordWalks(sh.walks, buf, &slot); err != nil {
						slot.ops = buf.ReleaseOps()
					}
					if err != nil {
						freeSlots <- slot
						fail(err)
					} else {
						sh.buf, sh.tapes = buf, slot.tapes
						traceGens.Add(1)
					}
				case <-ctx.Done():
				case <-abort:
				}
				close(sh.ready)
			}
		}()
	}

	ch := make(chan missJob)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One simulator per machine per worker, lazily built; its
			// caches are built only if it runs a job live. own is the
			// worker's backing store for unshared traces, refilled in
			// place from job to job.
			sims := map[string]*sim.Simulator{}
			var own []trace.MicroOp
			for j := range ch {
				s, ok := sims[j.machine.Name]
				if !ok {
					var err error
					if s, err = sim.New(j.machine); err != nil {
						fail(err)
						continue
					}
					sims[j.machine.Name] = s
				}
				var buf, cursor *trace.Buffer
				if sh := j.shared; sh != nil {
					<-sh.ready
					if buf = sh.buf; buf == nil {
						continue // materialization aborted
					}
					cursor = buf.Replay()
				} else {
					var err error
					cursor, err = trace.MaterializeSpecInto(*j.spec, own)
					if err != nil {
						fail(fmt.Errorf("experiments: %s on %s: %w", j.spec.Name, j.machine.Name, err))
						continue
					}
					traceGens.Add(1)
				}
				res := new(sim.Result)
				var err error
				if j.walk >= 0 {
					err = s.Replay(res, cursor, j.shared.tapes[j.walk])
				} else {
					err = s.RunInto(res, cursor)
				}
				if sh := j.shared; sh == nil {
					own = cursor.ReleaseOps()
				} else if sh.left.Add(-1) == 0 {
					// Last user: recycle the stream's backing store and
					// tapes for the workload the materializer produces
					// next.
					sh.buf = nil
					freeSlots <- traceSlot{ops: buf.ReleaseOps(), tapes: sh.tapes}
				}
				if err != nil {
					fail(fmt.Errorf("experiments: %s on %s: %w", j.spec.Name, j.machine.Name, err))
					continue
				}
				complete(&j, res)
				for i := range j.twins {
					complete(&j.twins[i], res)
				}
			}
		}()
	}
feed:
	for _, j := range misses {
		// Stop feeding once a worker has failed: the campaign is doomed
		// anyway, and the remaining simulations would waste minutes.
		select {
		case <-abort:
			break feed
		default:
		}
		select {
		case ch <- j:
		case <-ctx.Done():
			break feed
		}
	}
	close(ch)
	wg.Wait()
	matWG.Wait()
	st.TraceGens = int(traceGens.Load())
	if firstErr == nil && ctx.Err() != nil {
		firstErr = ctx.Err()
	}
	return st, firstErr
}

// keyJobs pairs each job with its spec's ConfigHash and, when store is
// set, with its run-store key, and reads every key from store. It
// returns the stored Results by job index, nil for a miss (and nil
// without a store). Each distinct spec and machine of the batch is
// hashed once — a campaign's 309 jobs cover only 103 specs and 3
// machines — and the spec hashes, the keys and the reads all run on
// workers goroutines. Once ctx is cancelled no further spec is hashed
// or entry read and ctx.Err() is returned.
func keyJobs(ctx context.Context, jobs []simJob, store *runstore.Store, workers int) ([]missJob, []*sim.Result, error) {
	specIdx := make(map[*trace.Spec]int)
	var specs []*trace.Spec
	machineHashes := make(map[*uarch.Machine]string)
	for _, j := range jobs {
		if _, ok := specIdx[j.spec]; !ok {
			specIdx[j.spec] = len(specs)
			specs = append(specs, j.spec)
		}
		if _, ok := machineHashes[j.machine]; store != nil && !ok {
			machineHashes[j.machine] = j.machine.ConfigHash()
		}
	}
	specHashes := make([]string, len(specs))
	if err := onWorkers(ctx, len(specs), workers, func(k int) {
		specHashes[k] = specs[k].ConfigHash()
	}); err != nil {
		return nil, nil, err
	}
	keyed := make([]missJob, len(jobs))
	for i, j := range jobs {
		keyed[i] = missJob{simJob: j, specHash: specHashes[specIdx[j.spec]]}
	}
	if store == nil {
		return keyed, nil, nil
	}
	hits := make([]*sim.Result, len(jobs))
	errs := make([]error, len(jobs))
	if err := onWorkers(ctx, len(jobs), workers, func(i int) {
		j := &keyed[i]
		j.key = runstore.SimKeyOf(machineHashes[j.machine], j.specHash)
		hits[i], _, errs[i] = store.GetResult(j.key)
	}); err != nil {
		return nil, nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: %s on %s: %w", jobs[i].spec.Name, jobs[i].machine.Name, err)
		}
	}
	return keyed, hits, nil
}

// onWorkers calls fn(i) for every i in [0, n) on up to workers
// goroutines and waits for them. Once ctx is cancelled no further call
// starts and ctx.Err() is returned.
func onWorkers(ctx context.Context, n, workers int, fn func(int)) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(workers, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// foldTwins moves every miss whose spec and machine, apart from Name,
// equal an earlier miss's into that miss's twins, and returns the
// misses left to dispatch in their order. Each distinct machine is
// compared by value once, as a copy with Name cleared; the misses are
// then grouped by (spec hash, first machine of that value), and only
// when two machines share a value.
func foldTwins(misses []missJob) []missJob {
	canon := make(map[*uarch.Machine]*uarch.Machine)
	byValue := make(map[uarch.Machine]*uarch.Machine)
	for _, mj := range misses {
		if _, ok := canon[mj.machine]; ok {
			continue
		}
		v := *mj.machine
		v.Name = ""
		c, ok := byValue[v]
		if !ok {
			c = mj.machine
			byValue[v] = c
		}
		canon[mj.machine] = c
	}
	if len(byValue) == len(canon) {
		return misses
	}
	type twinKey struct {
		spec    string
		machine *uarch.Machine
	}
	first := make(map[twinKey]int, len(misses))
	out := misses[:0]
	for _, mj := range misses {
		k := twinKey{mj.specHash, canon[mj.machine]}
		if i, ok := first[k]; ok {
			out[i].twins = append(out[i].twins, mj)
			continue
		}
		first[k] = len(out)
		out = append(out, mj)
	}
	return out
}

// recordWalks records each walk machine's walk of buf into the tape of
// the same index in slot, adding tapes as needed.
func recordWalks(walks []*uarch.Machine, buf *trace.Buffer, slot *traceSlot) error {
	for i, m := range walks {
		if i == len(slot.tapes) {
			slot.tapes = append(slot.tapes, new(sim.Tape))
		}
		if err := sim.Record(m, buf, slot.tapes[i]); err != nil {
			return fmt.Errorf("experiments: walk %s on %s: %w", buf.Spec().Name, m.Name, err)
		}
	}
	return nil
}
