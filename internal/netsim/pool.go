package netsim

// PacketPool recycles UDP data packets through a free list, eliminating
// the dominant allocation of high-rate constant-bitrate workloads (the
// fleet sweep allocates one Packet per generated datagram otherwise).
//
// Pooling is strictly opt-in and conservative, because a recycled packet
// that something still references would silently corrupt a later
// transmission:
//
//   - Only packets obtained from Get are ever recycled (the pooled flag);
//     Put on a foreign or already-returned packet is a no-op.
//   - Only plain UDP data packets are accepted back. FANcY control
//     packets (Ctl) and TCP segments are retained by protocol machinery
//     (retransmit queues, reorder buffers) beyond their delivery, so they
//     are never pooled.
//   - Packets are returned only at points of certain ownership: the host
//     default-drop path and the link failure/chaos drop paths, and links
//     with a capture observer never recycle (capture_test inspects
//     packets after the run).
//
// A pool is single-threaded, like the Sim it serves: trials that run in
// parallel each use their own pool.
type PacketPool struct {
	free []*Packet

	// Gets and Reuses count pool traffic for tests and diagnostics.
	Gets   uint64
	Reuses uint64
}

// NewPacketPool returns an empty pool.
func NewPacketPool() *PacketPool { return &PacketPool{} }

// Get returns a zeroed packet marked as pool-owned.
func (p *PacketPool) Get() *Packet {
	p.Gets++
	if n := len(p.free); n > 0 {
		pkt := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		*pkt = Packet{pooled: true}
		p.Reuses++
		return pkt
	}
	return &Packet{pooled: true}
}

// Put returns a packet to the pool if it is eligible (see the type
// comment). Ineligible packets are left to the garbage collector.
func (p *PacketPool) Put(pkt *Packet) {
	if p == nil || pkt == nil || !pkt.pooled {
		return
	}
	if pkt.Proto != ProtoUDP || pkt.Ctl != nil {
		return
	}
	pkt.pooled = false // a second Put is a no-op until the next Get
	p.free = append(p.free, pkt)
}
