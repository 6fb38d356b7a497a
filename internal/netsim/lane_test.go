package netsim

import (
	"fmt"
	"strings"
	"testing"

	"fancy/internal/sim"
)

// TestSerializationExactTimes pins the integer serialization arithmetic to
// exact values for the rates EXPERIMENTS.md uses. The rule is documented on
// direction.serialization: ns = ceil(bits * 1e9 / rate) — a packet never
// finishes serialization early, and equal inputs give bit-identical times
// on every platform (the old float64 math could drift at high rates).
func TestSerializationExactTimes(t *testing.T) {
	cases := []struct {
		rateBps int64
		size    int
		want    sim.Time
	}{
		// 2 Mbps × 1000 B (the fleet sweep's UDP source): exactly 4 ms.
		{2e6, 1000, 4 * sim.Millisecond},
		// 1 Mbps × 1250 B: exactly 10 ms (the classic test fixture).
		{1e6, 1250, 10 * sim.Millisecond},
		// 10 Gbps × 1500 B: 12000 bits / 10^10 bps = 1.2 µs exactly.
		{10e9, 1500, 1200 * sim.Nanosecond},
		// 100 Gbps × 64 B: 512 bits / 10^11 bps = 5.12 ns → rounds UP to 6.
		{100e9, 64, 6 * sim.Nanosecond},
		// 3 Mbps × 1000 B: 8000/3 µs = 2666.66… µs → rounds UP.
		{3e6, 1000, sim.Time(2666667)},
		// Zero rate means an infinitely fast link.
		{0, 1500, 0},
	}
	for _, c := range cases {
		d := &direction{rateBps: c.rateBps}
		if got := d.serialization(c.size); got != c.want {
			t.Errorf("serialization(%d B @ %d bps) = %v, want %v",
				c.size, c.rateBps, got, c.want)
		}
	}
}

// TestLaneEgressHookTiming verifies the per-link lane preserves the egress
// hook contract: the hook fires when a packet begins serialization — at
// send time for an idle serializer, at the previous packet's serialization
// end for a queued one.
func TestLaneEgressHookTiming(t *testing.T) {
	s := sim.New(1)
	a := &sinkNode{name: "a", s: s}
	b := &sinkNode{name: "b", s: s}
	Connect(s, a, 0, b, 0, LinkConfig{Delay: sim.Millisecond, RateBps: 1e6})
	var hookAt []sim.Time
	var hookID []uint64
	a.tx.dir.egressHook = func(pkt *Packet) {
		hookAt = append(hookAt, s.Now())
		hookID = append(hookID, pkt.ID)
	}
	// 1250 B @ 1 Mbps = 10 ms serialization each.
	a.tx.Send(&Packet{Size: 1250, ID: 1}) // serializes 0–10 ms
	a.tx.Send(&Packet{Size: 1250, ID: 2}) // serializes 10–20 ms
	s.Run(0)
	if len(hookAt) != 2 {
		t.Fatalf("egress hook fired %d times, want 2", len(hookAt))
	}
	if hookID[0] != 1 || hookAt[0] != 0 {
		t.Errorf("first egress: id=%d at %v, want id=1 at 0", hookID[0], hookAt[0])
	}
	if hookID[1] != 2 || hookAt[1] != 10*sim.Millisecond {
		t.Errorf("second egress: id=%d at %v, want id=2 at 10ms", hookID[1], hookAt[1])
	}
	if len(b.got) != 2 || b.at[0] != 11*sim.Millisecond || b.at[1] != 21*sim.Millisecond {
		t.Errorf("deliveries %v, want [11ms 21ms]", b.at)
	}
}

// TestPacketPoolSemantics exercises the Get/Put eligibility rules: only
// pool-originated plain UDP packets are recycled, and returned packets come
// back zeroed.
func TestPacketPoolSemantics(t *testing.T) {
	p := NewPacketPool()
	pkt := p.Get()
	if !pkt.pooled {
		t.Fatal("Get must mark the packet pooled")
	}
	pkt.Proto = ProtoUDP
	pkt.ID = 42
	pkt.Size = 1000
	p.Put(pkt)
	if p.Gets != 1 {
		t.Errorf("Gets = %d, want 1", p.Gets)
	}
	got := p.Get()
	if got != pkt {
		t.Error("pool did not recycle the returned packet")
	}
	if got.ID != 0 || got.Size != 0 || !got.pooled {
		t.Errorf("recycled packet not reset: %+v", got)
	}
	if p.Reuses != 1 {
		t.Errorf("Reuses = %d, want 1", p.Reuses)
	}

	// Foreign packets (not from the pool) are refused.
	foreign := &Packet{ID: 7}
	p.Put(foreign)
	if len(p.free) != 0 {
		t.Error("pool accepted a non-pooled packet")
	}
	// Control packets are refused even if pool-originated.
	ctl := p.Get()
	ctl.Proto = ProtoFancy
	ctl.Ctl = []byte{1}
	p.Put(ctl)
	if len(p.free) != 0 {
		t.Error("pool accepted a control packet")
	}
	// Put clears pooled, so a double Put of the same pointer is a no-op.
	dup := p.Get()
	dup.Proto = ProtoUDP
	p.Put(dup)
	p.Put(dup)
	if len(p.free) != 1 {
		t.Errorf("double Put stored %d entries, want 1", len(p.free))
	}
	// nil pool and nil packet are both safe.
	var nilPool *PacketPool
	nilPool.Put(&Packet{})
	p.Put(nil)
}

// TestChaosCloneClearsLaneState guards the duplicate path: a cloned packet
// must not inherit the original's intrusive lane linkage or pool ownership,
// or the lanes would corrupt and the pool could double-free.
func TestChaosCloneClearsLaneState(t *testing.T) {
	orig := &Packet{ID: 1, pooled: true, laneAt: 5, laneEgressed: true}
	orig.laneNext = &Packet{ID: 2}
	c := orig.clone()
	if c.laneNext != nil || c.laneAt != 0 || c.laneEgressed || c.pooled {
		t.Errorf("clone kept lane/pool state: %+v", c)
	}
}

// TestLinkSteadyStateDoesNotAllocate pins the pooled hot path: a
// send→serialize→propagate→deliver→recycle cycle on a warmed link performs
// no heap allocations.
func TestLinkSteadyStateDoesNotAllocate(t *testing.T) {
	s := sim.New(1)
	a := &sinkNode{name: "a", s: s}
	b := &dropNode{name: "b"}
	l := Connect(s, a, 0, b, 0, LinkConfig{Delay: sim.Millisecond, RateBps: 1e9})
	pool := NewPacketPool()
	l.SetPool(pool)
	b.pool = pool
	// Warm the lane, the event pool, and the packet pool.
	cycle := func() {
		pkt := pool.Get()
		pkt.Proto = ProtoUDP
		pkt.Size = 1000
		a.tx.Send(pkt)
		s.Run(0)
	}
	for i := 0; i < 16; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Errorf("steady-state link cycle allocates %.1f objects, want 0", avg)
	}
	if pool.Reuses == 0 {
		t.Error("pool never recycled a packet")
	}
}

// dropNode receives and discards without retaining, so delivered packets
// reach the death point the pool reclaims from (host no-handler drop is the
// production path; here the node itself frees).
type dropNode struct {
	name string
	tx   *LinkEnd
	pool *PacketPool
	got  int
}

func (n *dropNode) Name() string                 { return n.name }
func (n *dropNode) Attach(port int, tx *LinkEnd) { n.tx = tx }
func (n *dropNode) Receive(pkt *Packet, port int) {
	n.got++
	if n.pool != nil {
		n.pool.Put(pkt)
	}
}

// TestPingPongDeliveryTimes bounces two packets across one link and back
// and requires the analytic delivery times: 1250 B at 1 Mbit/s is 10 ms of
// serialization, plus 2 ms of propagation per hop. The second packet's
// return queues behind nothing, so every hop costs exactly 12 ms.
func TestPingPongDeliveryTimes(t *testing.T) {
	s := sim.New(7)
	var log []string
	a := &bouncer{name: "a", s: s, log: &log}
	b := &bouncer{name: "b", s: s, log: &log, bounce: true}
	Connect(s, a, 0, b, 0, LinkConfig{Delay: 2 * sim.Millisecond, RateBps: 1e6})
	s.After(0, func() { a.tx.Send(&Packet{Size: 1250, ID: 1}) })
	s.After(15*sim.Millisecond, func() { a.tx.Send(&Packet{Size: 1250, ID: 2}) })
	s.Run(100 * sim.Millisecond)
	want := []string{
		"b got 1 at 12ms",
		"a got 1 at 24ms",
		"b got 2 at 27ms",
		"a got 2 at 39ms",
	}
	if strings.Join(log, "\n") != strings.Join(want, "\n") {
		t.Errorf("deliveries:\n%s\nwant:\n%s", strings.Join(log, "\n"), strings.Join(want, "\n"))
	}
}

// bouncer logs every arrival and, if bounce is set, sends the packet back.
type bouncer struct {
	name   string
	s      *sim.Sim
	tx     *LinkEnd
	log    *[]string
	bounce bool
}

func (n *bouncer) Name() string                 { return n.name }
func (n *bouncer) Attach(port int, tx *LinkEnd) { n.tx = tx }
func (n *bouncer) Receive(pkt *Packet, port int) {
	*n.log = append(*n.log, fmt.Sprintf("%s got %d at %v", n.name, pkt.ID, n.s.Now()))
	if n.bounce {
		n.tx.Send(pkt)
	}
}
