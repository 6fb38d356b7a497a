package main

// The traced run cannot wrap calls made inside exp.Table3,
// exp.FleetAbileneWorkers or exp.FleetChaos, so it replays their trials
// here with the same public building blocks, the same parameters and the
// same seeds, and times the calls into each layer from outside. Every
// trial's outcome is then compared with the driver's own result for the
// same seed, so a replay that drifts from its driver fails the run instead
// of measuring something else. The set-up passes behind setup_s use the
// same code with tracing off, stopping each trial before its first event.

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"fancy/internal/exp"
	"fancy/internal/fancy"
	"fancy/internal/fancy/tree"
	"fancy/internal/fleet"
	"fancy/internal/mgmt"
	"fancy/internal/netsim"
	"fancy/internal/sim"
	"fancy/internal/stats"
	"fancy/internal/tcp"
	"fancy/internal/topo"
	"fancy/internal/traffic"
	"fancy/internal/verify"
)

// counts are the layers' exported counters, summed over one sweep's
// trials. Every field is a simulated quantity, so two passes over the same
// seed must produce identical counts.
type counts struct {
	Trials int

	Events, ProbeTicks uint64  // program events run; benchmark probe events
	DepthWeighted      float64 // Σ queued events × events run since the previous probe
	DepthEvents        uint64

	Pkts, Drops          uint64 // link directions: packets accepted, dropped
	PoolGets, PoolReuses uint64

	Sessions, CtlMsgs, CtlBytes, CtlRetx uint64
	Alarms, TrueAlarms                   uint64

	Segments, Retransmits, Timeouts, Flows uint64

	FleetAlarms, FleetSuppressed, Failovers uint64
	MgmtSent, MgmtDelivered, MgmtRetries    uint64
	VerifyChecks, VerifyRejected            uint64
	UnsafeAtoms                             uint64

	// Dedicated-counter trials of trace-tcp: those whose prefix lost
	// packets to the failure, and those of them that went undetected.
	DedLossy, DedLossyMissed uint64
}

// traceCtx carries one pass's settings and accumulates what it measures.
type traceCtx struct {
	tr        *tracer  // nil outside traced passes
	setupOnly bool     // stop every trial before its first event
	period    sim.Time // depth-probe period (traced passes)
	spin      float64  // spin iterations per program event, in the probe (self-test)

	setup   time.Duration // host time before each trial's first event, summed
	runCPU  time.Duration // thread CPU inside sim.Run spans
	c       counts
	peekErr error
	trialNo int
	bad     []string // failed per-trial checks
}

func (tc *traceCtx) fail(format string, args ...any) {
	tc.bad = append(tc.bad, fmt.Sprintf(format, args...))
}

// probe is the benchmark's own periodic event. It samples the event-queue
// depth, weighted by the events run since the previous sample, and in the
// sensitivity self-test spins for a fixed amount of work per event.
type probe struct {
	s                 *sim.Sim
	period            sim.Time
	spin              float64
	ticks, lastEvents uint64
	depthW            float64
	depthN            uint64
	fn                func()
}

func startProbe(s *sim.Sim, period sim.Time, spin float64) *probe {
	p := &probe{s: s, period: period, spin: spin}
	p.fn = p.tick
	s.After(period, p.fn)
	return p
}

func (p *probe) tick() {
	p.ticks++
	events := p.s.Executed - p.ticks // Executed already counts this tick
	d := events - p.lastEvents
	p.lastEvents = events
	p.depthW += float64(p.s.Pending()) * float64(d)
	p.depthN += d
	if p.spin > 0 {
		spin(uint64(p.spin * float64(d)))
	}
	p.s.After(p.period, p.fn)
}

// runSim runs s to horizon inside a sim.Run span, with the probe attached
// in traced passes, and books the probe's counts.
func (tc *traceCtx) runSim(s *sim.Sim, horizon sim.Time, parent int) {
	var p *probe
	if tc.tr != nil {
		p = startProbe(s, tc.period, tc.spin)
	}
	sp := tc.tr.begin("sim.Run", parent)
	cpu0 := tc.threadCPU()
	s.Run(horizon)
	tc.runCPU += tc.threadCPU() - cpu0
	tc.tr.end(sp)
	tc.bookSim(s, p)
}

func (tc *traceCtx) threadCPU() time.Duration {
	if tc.tr == nil {
		return 0
	}
	return threadCPU()
}

func (tc *traceCtx) bookSim(s *sim.Sim, p *probe) {
	if p == nil {
		return
	}
	tc.c.Events += s.Executed - p.ticks
	tc.c.ProbeTicks += p.ticks
	tc.c.DepthWeighted += p.depthW
	tc.c.DepthEvents += p.depthN
}

// bookLinks adds the packet counters of every link direction and the
// FANcY control-plane counters of every detector in view.
func (tc *traceCtx) bookLinks(v netView) {
	if v.err != nil && tc.peekErr == nil {
		tc.peekErr = v.err
	}
	for _, e := range v.ends {
		st := e.Stats()
		tc.c.Pkts += st.Sent
		tc.c.Drops += st.CongestionDrops + st.FailureDrops
	}
	for _, d := range v.detectors {
		tc.c.CtlMsgs += d.CtlMsgsSent
		tc.c.CtlBytes += d.CtlBytesSent
		tc.c.CtlRetx += d.Stats().Retransmits
	}
}

// ---- trace-tcp: exp.Table3 at quick scale ----

// table3Losses, table3Samples and table3Dedicated are exp.Table3's quick
// scale: the loss-rate axis, the sampled prefixes and the dedicated set.
var table3Losses = []float64{1.0, 0.5, 0.1, 0.01}

const (
	table3Samples   = 6
	table3Dedicated = 100
)

type table3Plan struct {
	trace     *traffic.Trace
	cfg       fancy.Config
	dedicated map[netsim.EntryID]bool
	samples   []netsim.EntryID
	bytesOf   map[netsim.EntryID]int64
	duration  sim.Time
	failAt    sim.Time
}

func planTable3(seed int64, tc *traceCtx, parent int) *table3Plan {
	cfg := traffic.StandardTraces(400.0)[0]
	cfg.Seed = seed
	cfg.Duration = 12 * sim.Second
	sp := tc.tr.begin("traffic.Synthesize", parent)
	tr := traffic.Synthesize(cfg)
	tc.tr.end(sp)

	p := &table3Plan{trace: tr, dedicated: map[netsim.EntryID]bool{},
		bytesOf: map[netsim.EntryID]int64{}, duration: cfg.Duration, failAt: 2 * sim.Second}
	ded := make([]netsim.EntryID, table3Dedicated)
	for i := range ded {
		ded[i] = netsim.EntryID(i)
		p.dedicated[ded[i]] = true
	}
	p.cfg = fancy.Config{
		HighPriority: ded,
		Tree:         tree.Params{Width: 190, Depth: 3, Split: 2, Pipelined: true},
		TreeSeed:     17,
	}
	for _, f := range tr.Specs {
		p.bytesOf[f.Entry] += f.Bytes
	}
	p.samples = samplePrefixes(tr, len(ded), table3Samples, rand.New(rand.NewSource(seed+99)))
	return p
}

// samplePrefixes is exp's stratified sample over the slice's byte ranks.
func samplePrefixes(tr *traffic.Trace, nDedicated, n int, rng *rand.Rand) []netsim.EntryID {
	head := tr.Config.Prefixes / 20
	if head < 25 {
		head = 25
	}
	if m := 2 * nDedicated; head < m {
		head = m
	}
	top := tr.SliceTop(head)
	if len(top) == 0 {
		return nil
	}
	var out []netsim.EntryID
	for i := 0; i < n; i++ {
		f := float64(i) / float64(n)
		idx := int(f * f * float64(len(top)-1))
		jitter := 0
		if len(top) > 10 {
			jitter = rng.Intn(len(top) / 10)
		}
		if idx+jitter < len(top) {
			idx += jitter
		}
		out = append(out, top[idx])
	}
	seen := map[netsim.EntryID]bool{}
	uniq := out[:0]
	for _, e := range out {
		if !seen[e] {
			seen[e] = true
			uniq = append(uniq, e)
		}
	}
	return uniq
}

// table3Replay replays exp.Table3(exp.Quick, seed) trial by trial and
// returns the rows it aggregates, computed exactly as the driver does.
func table3Replay(seed int64, tc *traceCtx, parent int) *exp.Table3Result {
	t0 := time.Now()
	plan := planTable3(seed, tc, parent)
	tc.setup += time.Since(t0)
	res := &exp.Table3Result{Scale: exp.Quick}
	for _, loss := range table3Losses {
		row := exp.Table3Row{LossRate: loss}
		var detBytes, totBytes float64
		var det, tot, dedDet, dedTot, treeDet, treeTot int
		var lat []float64
		for i, prefix := range plan.samples {
			sc := &exp.Scenario{
				Seed: seed + int64(i)*131, Cfg: plan.cfg, Delay: 10 * sim.Millisecond,
				Duration: plan.duration, FailAt: plan.failAt, LossRate: loss,
				Failed:           []netsim.EntryID{prefix},
				StopWhenDetected: true,
			}
			out := table3Trial(sc, plan, prefix, tc, parent)
			if tc.setupOnly {
				continue
			}
			d := out.PerEntry[prefix]
			tot++
			totBytes += float64(plan.bytesOf[prefix])
			if plan.dedicated[prefix] {
				dedTot++
			} else {
				treeTot++
			}
			if d.Detected {
				det++
				detBytes += float64(plan.bytesOf[prefix])
				lat = append(lat, d.Latency.Seconds())
				if plan.dedicated[prefix] {
					dedDet++
				} else {
					treeDet++
				}
			}
		}
		row.Trials = tot
		row.DedTrials = dedTot
		row.TreeTrials = treeTot
		if tot > 0 {
			row.TPRPrefixes = float64(det) / float64(tot)
		}
		if totBytes > 0 {
			row.TPRBytes = detBytes / totBytes
		}
		if dedTot > 0 {
			row.TPRDedicated = float64(dedDet) / float64(dedTot)
		}
		if treeTot > 0 {
			row.TPRTree = float64(treeDet) / float64(treeTot)
		}
		row.DetTimeSecs = stats.Mean(lat)
		res.Rows = append(res.Rows, row)
	}
	return res
}

// table3Trial runs one scenario through exp.Scenario.Run. The traffic hook
// schedules the trace (the traffic.Schedule span) and is the last thing
// Run does before the event loop, so the sim.Run span starts where it
// returns.
func table3Trial(sc *exp.Scenario, plan *table3Plan, prefix netsim.EntryID, tc *traceCtx, parent int) *exp.Outcome {
	tc.tr.setTrial(tc.trialNo)
	tc.trialNo++
	defer tc.tr.setTrial(-1)
	trialSpan := tc.tr.begin("trial", parent)
	defer tc.tr.end(trialSpan)

	start := time.Now()
	var (
		s         *sim.Sim
		src, dst  *netsim.Host
		drv       *traffic.Driver
		p         *probe
		scenSpan  int
		runSpan   int
		cpu0      time.Duration
		scheduled bool
	)
	sc.InstallTraffic = func(sm *sim.Sim, a, b *netsim.Host) {
		s, src, dst = sm, a, b
		sp := tc.tr.begin("traffic.Schedule", scenSpan)
		drv = traffic.NewDriver(sm, a, b, tcp.Config{})
		drv.Schedule(plan.trace.Specs)
		tc.tr.end(sp)
		scheduled = true
		if tc.setupOnly {
			sm.At(0, sm.Stop)
		} else if tc.tr != nil {
			p = startProbe(sm, tc.period, tc.spin)
		}
		tc.setup += time.Since(start)
		runSpan = tc.tr.begin("sim.Run", scenSpan)
		cpu0 = tc.threadCPU()
	}
	scenSpan = tc.tr.begin("exp.Scenario.Run", trialSpan)
	out := sc.Run()
	tc.runCPU += tc.threadCPU() - cpu0
	tc.tr.end(runSpan)
	tc.tr.end(scenSpan)
	if !scheduled {
		tc.fail("trace-tcp seed %d: the traffic hook never ran", sc.Seed)
		return out
	}
	if tc.tr == nil {
		return out
	}

	tc.c.Trials++
	tc.bookSim(s, p)
	v := walkNet([]*netsim.Host{src, dst}, nil)
	tc.bookLinks(v)
	for _, sw := range v.switches {
		if d, err := detectorOn(sw); err == nil && d != nil {
			for port := 0; port < sw.NumPorts(); port++ {
				tc.c.Sessions += d.SessionsCompleted(port)
			}
		}
	}
	for _, snd := range drv.Senders {
		tc.c.Segments += snd.Stats.SegmentsSent
		tc.c.Retransmits += snd.Stats.Retransmits
		tc.c.Timeouts += snd.Stats.Timeouts
	}
	tc.c.Flows += drv.Started()

	// Alarms: detection events, true when they name the failed prefix
	// (dedicated counter) or its hash path (tree leaf).
	var path []uint16
	var lossy bool
	if up, err := upstreamSwitch(src); err == nil {
		if d, err := detectorOn(up); err == nil && d != nil {
			path = d.EntryPath(1, prefix)
		}
		if e := up.Port(1); e != nil {
			lossy = e.Stats().FailureDrops > 0
		}
	} else if tc.peekErr == nil {
		tc.peekErr = err
	}
	for _, ev := range out.Events {
		switch ev.Kind {
		case fancy.EventDedicated, fancy.EventTreeLeaf, fancy.EventUniform:
			tc.c.Alarms++
			if (ev.Kind == fancy.EventDedicated && ev.Entry == prefix) ||
				(ev.Kind == fancy.EventTreeLeaf && !plan.dedicated[prefix] && samePath(ev.Path, path)) {
				tc.c.TrueAlarms++
			}
		}
	}
	if plan.dedicated[prefix] && lossy && sc.LossRate >= 0.1 {
		tc.c.DedLossy++
		if !out.PerEntry[prefix].Detected {
			tc.c.DedLossyMissed++
		}
	}
	return out
}

// upstreamSwitch is the switch src's uplink feeds: the sender side of the
// monitored link in exp.Scenario.
func upstreamSwitch(src *netsim.Host) (*netsim.Switch, error) {
	e, err := uplink(src)
	if err != nil {
		return nil, err
	}
	n, err := farEnd(e)
	if err != nil {
		return nil, err
	}
	sw, ok := n.(*netsim.Switch)
	if !ok {
		return nil, fmt.Errorf("peek: %s's uplink does not end at a switch", src.Name())
	}
	return sw, nil
}

func samePath(a, b []uint16) bool {
	if len(a) != len(b) || len(a) == 0 {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ---- fleet-verified and fleet-chaos ----

// fleetDuration is the full-scale trial length of both fleet drivers.
const fleetDuration = 5 * sim.Second

// fleetTargets is every directed Abilene link in the drivers' order.
func fleetTargets() []topo.DirectedLink {
	var out []topo.DirectedLink
	for _, l := range topo.Abilene().Links {
		out = append(out, topo.DirectedLink{From: l.A, To: l.B}, topo.DirectedLink{From: l.B, To: l.A})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// chaosConfigs is exp.FleetChaos's impairment grid.
var chaosConfigs = []exp.ChaosFleetConfig{
	{Name: "perfect", Loss: 0, Crash: false},
	{Name: "loss10", Loss: 0.10, Crash: false},
	{Name: "loss20+crash", Loss: 0.20, Crash: true},
	{Name: "replica3+leaderkill", Loss: 0.20, Crash: true, Replicas: 3},
}

// loopFreeBackup is exp's choice of a detour that provably avoids dl.
func loopFreeBackup(n *topo.Network, dl topo.DirectedLink) (string, bool) {
	direct, ok := n.LinkDelay(dl.From, dl.To)
	if !ok {
		return "", false
	}
	best := ""
	var bestDelay sim.Time
	for _, nb := range n.Neighbors(dl.From) {
		if nb == dl.To {
			continue
		}
		detour, ok := n.PathDelay(nb, dl.To)
		if !ok {
			continue
		}
		back, _ := n.LinkDelay(nb, dl.From)
		if detour >= back+direct {
			continue
		}
		if best == "" || detour < bestDelay {
			best, bestDelay = nb, detour
		}
	}
	return best, best != ""
}

// fleetOutcome is one replayed fleet trial.
type fleetOutcome struct {
	row      exp.FleetRow      // fleet-verified's row
	chaosRow exp.ChaosFleetRow // fleet-chaos's row
}

// fleetTrial replays exp's fleetTrial (chaos == nil, verified gate on) or
// fleetChaosTrial (chaos != nil) for one gray link.
func fleetTrial(seed int64, dl topo.DirectedLink, chaos *exp.ChaosFleetConfig, tc *traceCtx, parent int) fleetOutcome {
	tc.tr.setTrial(tc.trialNo)
	tc.trialNo++
	defer tc.tr.setTrial(-1)
	trialSpan := tc.tr.begin("trial", parent)
	defer tc.tr.end(trialSpan)
	start := time.Now()

	s := sim.New(seed)
	spec := topo.Abilene()
	spec.Hosts = []topo.HostSpec{{Name: "hsrc", Attach: dl.From}, {Name: "hdst", Attach: dl.To}}
	sp := tc.tr.begin("topo.Build", trialSpan)
	n, err := topo.Build(s, spec)
	tc.tr.end(sp)
	if err != nil {
		tc.fail("%s: topology: %v", dl, err)
		return fleetOutcome{}
	}
	const entry = netsim.EntryID(10)
	sp = tc.tr.begin("topo.InstallShortestPaths", trialSpan)
	err = n.InstallShortestPaths(map[netsim.EntryID]string{entry: "hdst"})
	tc.tr.end(sp)
	if err != nil {
		tc.fail("%s: routes: %v", dl, err)
		return fleetOutcome{}
	}
	cfg := fleet.Config{Fancy: fancy.Config{
		HighPriority: []netsim.EntryID{entry},
		Tree:         tree.Params{Width: 32, Depth: 3, Split: 2, Pipelined: true},
		TreeSeed:     3,
	}}
	if chaos == nil {
		cfg.Verify = &fleet.VerifyConfig{}
	} else {
		cfg.Mgmt = &mgmt.Config{Loss: chaos.Loss, Duplicate: chaos.Loss / 2, Jitter: sim.Millisecond}
		cfg.Replicas = chaos.Replicas
	}
	sp = tc.tr.begin("fleet.New", trialSpan)
	f, err := fleet.New(s, n, cfg)
	tc.tr.end(sp)
	if err != nil {
		tc.fail("%s: fleet: %v", dl, err)
		return fleetOutcome{}
	}

	var out fleetOutcome
	protected := false
	if nb, ok := loopFreeBackup(n, dl); ok {
		protected = true
		route := n.Switches[dl.From].Routes.InsertEntry(entry, netsim.Route{
			Port:   n.PortOf[dl.From][dl.To],
			Backup: n.PortOf[dl.From][nb],
		})
		if err := f.Protect(dl.From, entry, route); err != nil {
			tc.fail("%s: protect: %v", dl, err)
			return fleetOutcome{}
		}
	}
	src := traffic.NewUDPSource(s, n.Hosts["hsrc"], netsim.FlowID(entry), entry,
		netsim.EntryAddr(entry, 1), 2e6, 1000, fleetDuration)
	var pool *netsim.PacketPool
	if chaos == nil {
		pool = n.UsePool()
		src.Pool = pool
	}
	src.Start()
	const failAt = sim.Second
	n.Direction(dl.From, dl.To).SetFailure(netsim.FailEntries(seed+1, failAt, 1.0, entry))
	if chaos != nil && chaos.Crash {
		if chaos.Replicas > 1 {
			killed := -1
			s.ScheduleAt(failAt+100*sim.Millisecond, func() { killed = f.KillLeader() })
			s.ScheduleAt(failAt+400*sim.Millisecond, func() { f.RestartReplica(killed) })
		} else {
			s.ScheduleAt(failAt+100*sim.Millisecond, f.CrashCorrelator)
			s.ScheduleAt(failAt+400*sim.Millisecond, f.RestartCorrelator)
		}
	}
	tc.setup += time.Since(start)
	if tc.setupOnly {
		return out
	}
	tc.runSim(s, fleetDuration, trialSpan)

	link := dl.String()
	loc := f.Localized()
	exact := len(loc) == 1 && loc[0] == link
	var ttl sim.Time
	if exact {
		ttl = f.LocalizedAt(link) - failAt
	}
	rerouted := protected && f.Rerouted(dl.From, entry)
	verdicts := 0
	for _, ev := range f.Events {
		if ev.Kind == fleet.EventLocalized && ev.Link == link {
			verdicts++
		}
	}
	sp = tc.tr.begin("fleet.Snapshot", trialSpan)
	snap := f.Snapshot()
	tc.tr.end(sp)
	if chaos == nil {
		out.row = exp.FleetRow{Link: link, Exact: exact, TTL: ttl, Suppressed: f.Suppressed,
			Protected: protected, Rerouted: rerouted}
	} else {
		out.chaosRow = exp.ChaosFleetRow{
			Config: chaos.Name, Link: link, Exact: exact, Verdicts: verdicts, TTL: ttl,
			Rerouted: rerouted, Protected: protected,
			Stale: snap.Corr.StaleEvents, Handbacks: snap.Corr.Handbacks,
			MgmtLost: snap.MgmtNet.Lost, MgmtHoles: snap.MgmtHoles,
			Duplicates: snap.MgmtDuplicates, Failovers: snap.Corr.Failovers,
		}
	}
	if tc.tr == nil {
		return out
	}

	// Invariants: exactly the injected link, one verdict, and a forwarding
	// state with no loop or blackhole after the reroute.
	sp = tc.tr.begin("verify.Audit", trialSpan)
	var audit *verify.Verdict
	if chaos == nil {
		audit = f.Verifier().Audit()
	} else {
		audit = verify.NewModel(n).Audit()
	}
	tc.tr.end(sp)
	if !exact {
		tc.fail("%s: localized %v, want exactly %s", link, loc, link)
	}
	if verdicts != 1 {
		tc.fail("%s: %d localization verdicts, want 1", link, verdicts)
	}
	if len(audit.Unsafe) > 0 {
		tc.fail("%s: %d unsafe atoms after the run: %v", link, len(audit.Unsafe), audit)
	}

	tc.c.Trials++
	tc.c.UnsafeAtoms += uint64(len(audit.Unsafe))
	names := make([]string, 0, len(n.Switches))
	for name := range n.Switches {
		names = append(names, name)
	}
	sort.Strings(names)
	switches := make([]*netsim.Switch, len(names))
	for i, name := range names {
		switches[i] = n.Switches[name]
	}
	tc.bookLinks(walkNet([]*netsim.Host{n.Hosts["hsrc"], n.Hosts["hdst"]}, switches))
	if pool != nil {
		tc.c.PoolGets += pool.Gets
		tc.c.PoolReuses += pool.Reuses
	}
	for _, lr := range snap.Links {
		tc.c.Sessions += lr.Sessions
		tc.c.Alarms += uint64(lr.Alarms)
		if lr.Link == link {
			tc.c.TrueAlarms += uint64(lr.Alarms)
		}
	}
	tc.c.FleetAlarms += uint64(snap.Alarms)
	tc.c.FleetSuppressed += uint64(snap.Suppressed)
	tc.c.Failovers += snap.Corr.Failovers
	tc.c.MgmtSent += snap.MgmtNet.Sent
	tc.c.MgmtDelivered += snap.MgmtNet.Delivered
	for _, a := range snap.Agents {
		tc.c.MgmtRetries += a.Stats.Retries + a.Stats.ProbeRetries
	}
	tc.c.VerifyChecks += snap.Verify.Checked
	tc.c.VerifyRejected += snap.Verify.Rejected
	return out
}

// fleetVerifiedReplay replays exp.FleetAbileneWorkers(exp.Full, seed, true, 1).
func fleetVerifiedReplay(seed int64, tc *traceCtx, parent int) *exp.FleetResult {
	res := &exp.FleetResult{Scale: exp.Full, Verified: true}
	for i, dl := range fleetTargets() {
		res.Rows = append(res.Rows, fleetTrial(seed+int64(i), dl, nil, tc, parent).row)
	}
	return res
}

// fleetChaosReplay replays exp.FleetChaos(exp.Full, seed).
func fleetChaosReplay(seed int64, tc *traceCtx, parent int) *exp.ChaosFleetResult {
	res := &exp.ChaosFleetResult{Scale: exp.Full}
	targets := fleetTargets()
	for ci := range chaosConfigs {
		for i, dl := range targets {
			o := fleetTrial(seed+int64(ci*1000+i), dl, &chaosConfigs[ci], tc, parent)
			res.Rows = append(res.Rows, o.chaosRow)
		}
	}
	return res
}

// sameRender reports whether two renders match, with the first differing
// line when they do not.
func sameRender(a, b string) (bool, string) {
	if a == b {
		return true, ""
	}
	al, bl := bytes.Split([]byte(a), []byte("\n")), bytes.Split([]byte(b), []byte("\n"))
	for i := 0; i < len(al) && i < len(bl); i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return false, fmt.Sprintf("line %d: %q vs %q", i+1, al[i], bl[i])
		}
	}
	return false, fmt.Sprintf("%d vs %d lines", len(al), len(bl))
}
