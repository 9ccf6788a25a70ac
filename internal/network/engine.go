package network

import (
	"cmp"
	"slices"

	"highradix/internal/arb"
	"highradix/internal/flit"
	"highradix/internal/sim"
)

// arrival is a flit in flight toward a router input buffer.
type arrival struct {
	router int // global router id
	port   int
	vc     int
	f      *flit.Flit
}

// creditMsg returns a buffer slot to an upstream output, or — when
// router is -1 — an injection credit to terminal `port`.
type creditMsg struct {
	router int
	port   int
	vc     int
}

// XKind tags a cross-shard message.
type XKind uint8

const (
	// XFlit is a flit crossing a shard boundary toward a remote input
	// buffer.
	XFlit XKind = iota
	// XCredit is a freed-slot credit returning to a remote output.
	XCredit
)

// Xmsg is one cross-shard event, produced into a shard's outbox during
// an epoch and applied to the owning shard's calendars at the barrier.
// (SrcRouter, SrcPort) identify the producing router output (flits) or
// freed input buffer (credits); together with At, VC and Kind they form
// the canonical merge key — unique per message, so sorting on it gives
// every worker count the same merge order.
type Xmsg struct {
	At        int64
	Kind      XKind
	SrcRouter int
	SrcPort   int
	DstRouter int
	DstPort   int
	VC        int
	F         *flit.Flit
}

// SortXmsgs orders messages by the canonical (At, SrcRouter, SrcPort,
// VC, Kind) key.
func SortXmsgs(ms []Xmsg) {
	slices.SortFunc(ms, func(a, b Xmsg) int {
		return cmp.Or(cmp.Compare(a.At, b.At), cmp.Compare(a.SrcRouter, b.SrcRouter),
			cmp.Compare(a.SrcPort, b.SrcPort), cmp.Compare(a.VC, b.VC), cmp.Compare(a.Kind, b.Kind))
	})
}

// Network is the topology-agnostic input-queued engine: per-VC input
// buffers, credit-based flow control, wormhole link-VC ownership, and
// a single-iteration rotating-priority output allocation per router —
// the simplified network-scale router model of the paper's Section 7.
//
// A Network owns the contiguous router range [lo, hi). The serial
// driver owns [0, Routers()); shard workers each own a slice of it.
// Events bound for routers outside the range accumulate in an outbox
// (TakeOutbox) instead of a local calendar, and remote events enter
// through PutRemote. A shard allocates only its own routers: with
// local router id lr = r-lo, per-(router, port, VC) state lives in one
// flat slice indexed (lr*ports+port)*VCs+vc and per-(router, port)
// state in one indexed lr*ports+port, so a router's state is one
// contiguous run and its flat (port*VCs+vc) requester index is an
// offset into it.
type Network struct {
	topo Topology
	seed uint64
	lo   int
	hi   int

	n     int // terminals
	v     int // VCs
	ports int
	ser   int64
	hop   int64
	cd    int64

	// buf holds the input buffers by value, per (router, port, VC).
	buf []sim.Queue[*flit.Flit]
	// credit counts free slots in the downstream buffer fed by each
	// (router, output, VC); ejection ports are uncounted.
	credit []int32
	// linkOwner holds the packet that owns each outgoing (router,
	// output, VC) channel between head and tail (wormhole flow control:
	// flits of different packets must not interleave on one link VC).
	linkOwner []uint64
	// routeOf/vcOf relay a head's routing choice to the body flits
	// landing behind it in the same (router, port, VC) buffer; each
	// flit is stamped (Route, RouteVC) at land time so a queued flit
	// keeps its own choice even after a later head overwrites these.
	routeOf []int32
	vcOf    []int32
	// outFree is the cycle each (router, output) channel finishes
	// serializing its last flit.
	outFree []int64
	// outPtr is the rotating allocation pointer per (router, output)
	// over flat (port*VCs+vc) requester indices.
	outPtr []int32
	// links and feeders cache Topology.Link and Feeder per (router,
	// port): the wiring is immutable and the hot loops need it on every
	// grant.
	links   []Link
	feeders []Link

	// injCredit[terminal][vc] counts free slots in the entry buffer fed
	// by each terminal; allocated only for terminals whose entry router
	// lies in [lo, hi).
	injCredit [][]int

	// arrivals and credits are calendars, not delay lines: the barrier
	// merge inserts remote events out of order relative to local ones.
	arrivals *sim.Calendar[arrival]
	credits  *sim.Calendar[creditMsg]
	toTerm   *sim.DelayLine[*flit.Flit]

	// reqScratch[output] collects flat (port*VCs+vc) requester indices;
	// reused across routers and cycles.
	reqScratch [][]int

	// Occupancy tracking, so Step visits only routers that hold flits
	// (O(active) per cycle) and InFlight is O(1).
	act      arb.BitVec
	occ      []arb.BitVec
	bufCount []int32
	buffered int
	outReqd  arb.BitVec

	outbox []Xmsg
	// outFlits counts XFlit entries in the outbox: flits that have left
	// this shard but are not yet in any calendar. They are in flight from
	// the whole run's point of view, so InFlight must include them or the
	// drain-exit checks of a multi-shard run would see an emptier network
	// than a one-shard run does.
	outFlits int
	ejected  []*flit.Flit
}

// New builds an engine owning every router of the Clos described by
// cfg (the historical constructor; routing draws from cfg.Seed).
func New(cfg Config) (*Network, error) {
	topo, err := NewClos(cfg)
	if err != nil {
		return nil, err
	}
	return NewNetwork(topo, topo.Config().Seed^0x632be59bd9b4e019), nil
}

// NewNetwork builds an engine owning every router of topo.
func NewNetwork(topo Topology, seed uint64) *Network {
	return NewNetworkRange(topo, seed, 0, topo.Routers())
}

// NewNetworkRange builds an engine owning routers [lo, hi) of topo.
// seed drives routing; every shard of one run must use the same value.
func NewNetworkRange(topo Topology, seed uint64, lo, hi int) *Network {
	p, v := topo.Ports(), topo.VCs()
	// An empty range (a shard of zero routers, legal when workers exceed
	// routers) still needs a nonempty activity vector: BitVecs reject
	// zero sizes, and a one-bit vector that never sets is free.
	actBits := hi - lo
	if actBits == 0 {
		actBits = 1
	}
	span := int(topo.HopDelay()) + 2
	if cd := topo.CreditDelay(); cd+1 > span {
		span = cd + 1
	}
	nw := &Network{
		topo: topo, seed: seed, lo: lo, hi: hi,
		n: topo.Terminals(), v: v, ports: p,
		ser: int64(topo.SerCycles()), hop: int64(topo.HopDelay()), cd: int64(topo.CreditDelay()),
		buf:        make([]sim.Queue[*flit.Flit], (hi-lo)*p*v),
		credit:     make([]int32, (hi-lo)*p*v),
		linkOwner:  make([]uint64, (hi-lo)*p*v),
		routeOf:    make([]int32, (hi-lo)*p*v),
		vcOf:       make([]int32, (hi-lo)*p*v),
		outFree:    make([]int64, (hi-lo)*p),
		outPtr:     make([]int32, (hi-lo)*p),
		links:      make([]Link, (hi-lo)*p),
		feeders:    make([]Link, (hi-lo)*p),
		injCredit:  make([][]int, topo.Terminals()),
		arrivals:   sim.NewCalendar[arrival](span),
		credits:    sim.NewCalendar[creditMsg](span),
		toTerm:     sim.NewDelayLine[*flit.Flit](topo.SerCycles()),
		reqScratch: make([][]int, p),
		act:        arb.MakeBitVec(actBits),
		occ:        make([]arb.BitVec, hi-lo),
		bufCount:   make([]int32, hi-lo),
		outReqd:    arb.MakeBitVec(p),
	}
	depth := topo.BufDepth()
	for lr := range nw.occ {
		nw.occ[lr] = arb.MakeBitVec(p * v)
		for pt := 0; pt < p; pt++ {
			o := lr*p + pt
			nw.links[o] = topo.Link(lo+lr, pt)
			nw.feeders[o] = topo.Feeder(lo+lr, pt)
			for i := o * v; i < (o+1)*v; i++ {
				nw.buf[i] = sim.MakeQueue[*flit.Flit](depth)
				if nw.links[o].Router >= 0 {
					nw.credit[i] = int32(depth)
				}
			}
		}
	}
	for t := 0; t < nw.n; t++ {
		er, _ := topo.Entry(t)
		if er < lo || er >= hi {
			continue
		}
		nw.injCredit[t] = make([]int, v)
		for c := 0; c < v; c++ {
			nw.injCredit[t][c] = depth
		}
	}
	return nw
}

// Topology returns the topology the engine runs.
func (nw *Network) Topology() Topology { return nw.topo }

// Terminals returns the endpoint count.
func (nw *Network) Terminals() int { return nw.n }

// Owns reports whether router r lies in this engine's range.
func (nw *Network) Owns(r int) bool { return r >= nw.lo && r < nw.hi }

// CanInject reports whether terminal src can send a flit on vc. Only
// valid for terminals whose entry router this engine owns.
func (nw *Network) CanInject(src, vc int) bool { return nw.injCredit[src][vc] > 0 }

// Inject launches a flit from terminal f.Src on virtual channel vc.
// The caller enforces the terminal channel's serialization rate. The
// entry router is always local (sources live with their shard).
func (nw *Network) Inject(now int64, f *flit.Flit, vc int) {
	if nw.injCredit[f.Src][vc] <= 0 {
		panic("network: injection without credit")
	}
	nw.injCredit[f.Src][vc]--
	f.VC = vc
	f.InjectedAt = now
	r, p := nw.topo.Entry(f.Src)
	nw.arrivals.Schedule(now+nw.hop+1, arrival{router: r, port: p, vc: vc, f: f})
}

// Ejected returns flits delivered to terminals during the last Step,
// sorted by destination terminal; the slice is reused across steps.
// The sort makes delivery order canonical per cycle (at most one
// delivery per terminal per cycle, by the ejection serializer), which
// both the serial and sharded drivers rely on for identical statistics
// accumulation order.
func (nw *Network) Ejected() []*flit.Flit { return nw.ejected }

// InFlight counts flits inside the network. The buffered count is
// maintained as flits land and drain, so this never walks the grid.
func (nw *Network) InFlight() int {
	return nw.arrivals.Len() + nw.toTerm.Len() + nw.buffered + nw.outFlits
}

// Quiescent reports that Step is a provable no-op until new traffic is
// injected or merged in: no flit is buffered, on a wire, or
// serializing toward a terminal, and no credit is in flight (a
// draining credit mutates counters, so a cycle with pending credits
// may not be skipped).
func (nw *Network) Quiescent() bool {
	return nw.buffered == 0 && nw.arrivals.Len() == 0 &&
		nw.toTerm.Len() == 0 && nw.credits.Len() == 0
}

// NextWake returns a lower bound (>= now+1) on the next cycle at which
// Step can change state absent new injections, or sim.NoWake when the
// engine is empty forever. Buffered flits drive allocation every
// cycle; otherwise the earliest calendar event is exact.
func (nw *Network) NextWake(now int64) int64 {
	if nw.buffered > 0 {
		return now + 1
	}
	w := sim.NoWake
	if at, ok := nw.arrivals.NextAt(); ok && at < w {
		w = at
	}
	if at, ok := nw.toTerm.NextAt(); ok && at < w {
		w = at
	}
	if at, ok := nw.credits.NextAt(); ok && at < w {
		w = at
	}
	if w <= now {
		return now + 1
	}
	return w
}

// TakeOutbox returns the cross-shard events produced since the last
// call and resets the outbox. The caller must finish with the slice
// before the next Step on this engine.
func (nw *Network) TakeOutbox() []Xmsg {
	out := nw.outbox
	nw.outbox = nw.outbox[:0]
	nw.outFlits = 0
	return out
}

// PutRemote applies a cross-shard message produced by another engine.
// Called between epochs only (never concurrently with Step).
func (nw *Network) PutRemote(m Xmsg) {
	switch m.Kind {
	case XFlit:
		nw.arrivals.Schedule(m.At, arrival{router: m.DstRouter, port: m.DstPort, vc: m.VC, f: m.F})
	default:
		nw.credits.Schedule(m.At, creditMsg{router: m.DstRouter, port: m.DstPort, vc: m.VC})
	}
}

// land places an arrived flit into its input buffer, computing the
// packet's next hop when the flit is a head. The route key is a pure
// hash of (seed, packet, router), so the choice is identical whichever
// shard evaluates it.
func (nw *Network) land(a arrival) {
	lr := a.router - nw.lo
	i := (lr*nw.ports+a.port)*nw.v + a.vc
	if a.f.Head {
		np, nvc := nw.topo.NextHop(a.router, a.port, a.f.Dst, a.vc,
			routeKey(nw.seed, a.f.PacketID, a.router))
		nw.routeOf[i] = int32(np)
		nw.vcOf[i] = int32(nvc)
	}
	a.f.Route = int(nw.routeOf[i])
	a.f.RouteVC = int(nw.vcOf[i])
	nw.buf[i].MustPush(a.f)
	nw.occ[lr].Set(a.port*nw.v + a.vc)
	nw.bufCount[lr]++
	nw.act.Set(lr)
	nw.buffered++
}

// Step advances the owned routers one cycle.
func (nw *Network) Step(now int64) {
	nw.ejected = nw.ejected[:0]
	nw.credits.PopDue(now, func(c creditMsg) {
		if c.router < 0 {
			nw.injCredit[c.port][c.vc]++
			return
		}
		nw.credit[((c.router-nw.lo)*nw.ports+c.port)*nw.v+c.vc]++
	})
	nw.arrivals.PopDue(now, nw.land)
	nw.toTerm.DrainReady(now, func(f *flit.Flit) {
		nw.ejected = append(nw.ejected, f)
	})
	if len(nw.ejected) > 1 {
		slices.SortFunc(nw.ejected, func(a, b *flit.Flit) int { return cmp.Compare(a.Dst, b.Dst) })
	}

	v := nw.v
	flat := nw.ports * v
	for lr := nw.act.Next(0); lr >= 0; lr = nw.act.Next(lr + 1) {
		r := nw.lo + lr
		// Router lr's slices of the flat state: per-(port, VC) entries
		// are indexed by the flat requester index fi = port*VCs+vc,
		// per-output entries by the output port.
		bufs := nw.buf[lr*flat : (lr+1)*flat]
		credit := nw.credit[lr*flat : (lr+1)*flat]
		owners := nw.linkOwner[lr*flat : (lr+1)*flat]
		outFree := nw.outFree[lr*nw.ports : (lr+1)*nw.ports]
		outPtr := nw.outPtr[lr*nw.ports : (lr+1)*nw.ports]
		occR := &nw.occ[lr]
		// Request phase: every occupied input VC posts its front flit's
		// output request (single-iteration separable allocation,
		// requester side). The flat (port*VCs+vc) bit order equals the
		// dense (port, vc) double loop's. An output still serializing
		// cannot be granted this cycle, and a grant changes only the
		// granted output's state, so requests for it are never posted.
		for fi := occR.Next(0); fi >= 0; fi = occR.Next(fi + 1) {
			f, _ := bufs[fi].Peek()
			if outFree[f.Route] > now {
				continue
			}
			nw.outReqd.Set(f.Route)
			nw.reqScratch[f.Route] = append(nw.reqScratch[f.Route], fi)
		}
		// Grant phase: one winner per requested output, rotating
		// priority over flat (port, vc) indices. Each visited output's
		// scratch is truncated in place, so the next router starts clean
		// without a wide reset.
		for out := nw.outReqd.Next(0); out >= 0; out = nw.outReqd.Next(out + 1) {
			nw.outReqd.Clear(out)
			reqs := nw.reqScratch[out]
			nw.reqScratch[out] = reqs[:0]
			link := nw.links[lr*nw.ports+out]
			eject := link.Router < 0
			ptr := int(outPtr[out])
			best, bestRank := -1, flat
			for _, fi := range reqs {
				fr, _ := bufs[fi].Peek()
				oi := out*v + fr.RouteVC
				if !eject && credit[oi] <= 0 {
					continue
				}
				// Wormhole link-VC ownership: a head flit needs the
				// channel VC free; body flits must own it. This is what
				// keeps packets from interleaving on a link.
				if owner := owners[oi]; (fr.Head && owner != 0) || (!fr.Head && owner != fr.PacketID) {
					continue
				}
				rank := fi - ptr
				if rank < 0 {
					rank += flat
				}
				if rank < bestRank {
					bestRank, best = rank, fi
				}
			}
			if best < 0 {
				continue
			}
			f := bufs[best].MustPop()
			ovc := f.RouteVC
			oi := out*v + ovc
			if bufs[best].Len() == 0 {
				occR.Clear(best)
			}
			nw.bufCount[lr]--
			if nw.bufCount[lr] == 0 {
				nw.act.Clear(lr)
			}
			nw.buffered--
			outPtr[out] = int32((best + 1) % flat)
			outFree[out] = now + nw.ser
			nw.sendCreditUpstream(now, lr, best/v, best%v)
			if f.Head && !f.Tail {
				owners[oi] = f.PacketID
			}
			if f.Tail && !f.Head {
				owners[oi] = 0
			}
			f.Hops++
			if eject {
				// The exit wire must be the destination terminal
				// (routing invariant); the packet pays serialization
				// once (Eq. 1).
				if link.Terminal != f.Dst {
					panic("network: routing delivered flit to wrong terminal")
				}
				nw.toTerm.Push(now, f)
				continue
			}
			credit[oi]--
			f.VC = ovc
			at := now + nw.hop + 1
			if nw.Owns(link.Router) {
				nw.arrivals.Schedule(at, arrival{router: link.Router, port: link.Port, vc: ovc, f: f})
			} else {
				nw.outbox = append(nw.outbox, Xmsg{
					At: at, Kind: XFlit,
					SrcRouter: r, SrcPort: out,
					DstRouter: link.Router, DstPort: link.Port, VC: ovc, F: f,
				})
				nw.outFlits++
			}
		}
	}
}

// sendCreditUpstream routes a freed (local router lr, port p, vc c)
// buffer slot back to the output (or terminal) that feeds it. Terminal
// feeders are always local (the terminal's entry router is this
// router); remote router feeders go through the outbox.
func (nw *Network) sendCreditUpstream(now int64, lr, p, c int) {
	fd := nw.feeders[lr*nw.ports+p]
	at := now + nw.cd
	if fd.Router < 0 {
		nw.credits.Schedule(at, creditMsg{router: -1, port: fd.Terminal, vc: c})
		return
	}
	if nw.Owns(fd.Router) {
		nw.credits.Schedule(at, creditMsg{router: fd.Router, port: fd.Port, vc: c})
		return
	}
	nw.outbox = append(nw.outbox, Xmsg{
		At: at, Kind: XCredit,
		SrcRouter: nw.lo + lr, SrcPort: p,
		DstRouter: fd.Router, DstPort: fd.Port, VC: c,
	})
}
