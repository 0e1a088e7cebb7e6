package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"retina"
	"retina/internal/experiments"
	"retina/internal/layers"
)

// digest is an order-independent summary of one subscription's
// deliveries: the count and the wrapping sum of a mixed 64-bit hash per
// delivery. Callbacks run on the single core goroutine, so plain fields
// suffice; readers look only after the run has returned.
type digest struct {
	n   uint64
	sum uint64
}

func (d *digest) add(h uint64) {
	d.n++
	d.sum += mix(h)
}

// mix is the splitmix64 finalizer.
func mix(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ h>>31
}

// hashString folds s into h with FNV-1a, allocation-free so the
// benchmark's callbacks add nothing to the allocation metrics.
func hashString(h uint64, s string) uint64 {
	f := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		f ^= uint64(s[i])
		f *= 1099511628211
	}
	return mix(h ^ f)
}

// packetHash identifies a delivered frame cheaply enough for a per-packet
// callback: its tick and length plus sixteen bytes — the IPv4 addresses
// and the frame's tail, which holds the payload.
func packetHash(p *retina.Packet) uint64 {
	d := p.Data
	h := p.Tick<<16 ^ uint64(len(d))
	if len(d) >= 34 {
		h = mix(h ^ binary.LittleEndian.Uint64(d[26:34]))
	}
	if len(d) >= 8 {
		h = mix(h ^ binary.LittleEndian.Uint64(d[len(d)-8:]))
	}
	return h
}

func tupleHash(t *layers.FiveTuple) uint64 {
	h := mix(binary.LittleEndian.Uint64(t.SrcIP[:8]) ^ binary.LittleEndian.Uint64(t.SrcIP[8:])<<1)
	h = mix(h ^ binary.LittleEndian.Uint64(t.DstIP[:8]) ^ binary.LittleEndian.Uint64(t.DstIP[8:])<<1)
	meta := uint64(t.SrcPort)<<24 | uint64(t.DstPort)<<8 | uint64(t.Proto)
	if t.IsIPv6 {
		meta |= 1 << 40
	}
	return mix(h ^ meta)
}

func connHash(r *retina.ConnRecord) uint64 {
	h := tupleHash(&r.Tuple)
	for _, v := range [...]uint64{r.FirstTick, r.LastTick, r.PktsOrig, r.PktsResp, r.BytesOrig, r.BytesResp,
		r.PayloadOrig, r.PayloadResp, r.OOOOrig, r.OOOResp, uint64(r.Why)} {
		h = mix(h ^ v)
	}
	flags := uint64(0)
	for i, b := range [...]bool{r.Established, r.SynSeen, r.FinSeen, r.RstSeen} {
		if b {
			flags |= 1 << i
		}
	}
	return hashString(mix(h^flags), r.Service)
}

func tlsHash(hs *retina.TLSHandshake, ev *retina.SessionEvent) uint64 {
	h := mix(tupleHash(&ev.Tuple) ^ ev.Tick)
	h = mix(h ^ uint64(hs.ClientVersion)<<32 ^ uint64(hs.ServerVersion)<<16 ^ uint64(hs.Cipher))
	h = mix(h ^ binary.LittleEndian.Uint64(hs.ClientRandom[:8]) ^ binary.LittleEndian.Uint64(hs.ServerRandom[:8]))
	return hashString(h, hs.SNI)
}

func httpHash(tx *retina.HTTPTransaction, ev *retina.SessionEvent) uint64 {
	h := mix(tupleHash(&ev.Tuple) ^ ev.Tick)
	h = mix(h ^ uint64(tx.StatusCode)<<40 ^ uint64(tx.ContentLength))
	for _, s := range [...]string{tx.Method, tx.URI, tx.Host, tx.UserAgent, tx.ContentType} {
		h = hashString(h, s)
	}
	return h
}

// subDef is one subscription of a workload.
type subDef struct {
	name   string
	filter string
	sub    *retina.Subscription
	agg    string // aggregate shorthand, "" for none
}

// workload describes how a workload's subscriptions are built and how its
// traffic is driven.
type workload struct {
	name   string
	online bool // Runtime.Run through the NIC model instead of RunOffline
	subs   func(d []digest) []subDef
}

var workloads = []workload{
	{
		name: "campus",
		subs: func(d []digest) []subDef {
			return []subDef{
				{name: "conns", filter: "ipv4 and tcp", sub: retina.Connections(func(r *retina.ConnRecord) { d[0].add(connHash(r)) })},
				{name: "tls", filter: "tls", sub: retina.TLSHandshakes(func(h *retina.TLSHandshake, ev *retina.SessionEvent) { d[1].add(tlsHash(h, ev)) })},
				{name: "http", filter: "http", sub: retina.HTTPTransactions(func(tx *retina.HTTPTransaction, ev *retina.SessionEvent) { d[2].add(httpHash(tx, ev)) })},
			}
		},
	},
	{
		name: "elephants",
		subs: func(d []digest) []subDef {
			return []subDef{
				{name: "netflix", filter: experiments.Fig7Filter, sub: retina.TLSHandshakes(func(h *retina.TLSHandshake, ev *retina.SessionEvent) { d[0].add(tlsHash(h, ev)) })},
				{name: "heavy", filter: "tcp.port = 443", sub: retina.Packets(func(p *retina.Packet) { d[1].add(packetHash(p)) }), agg: "topk:5tuple:1s:10"},
			}
		},
	},
	{
		name: "small_pkts",
		subs: func(d []digest) []subDef {
			return []subDef{
				{name: "tcp", filter: "tcp", sub: retina.Packets(func(p *retina.Packet) { d[0].add(packetHash(p)) })},
			}
		},
	},
	{
		name:   "small_pkts_online",
		online: true,
		subs: func(d []digest) []subDef {
			return []subDef{
				{name: "tcp", filter: "tcp", sub: retina.Packets(func(p *retina.Packet) { d[0].add(packetHash(p)) })},
			}
		},
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	sort.Strings(names)
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// outputDigest folds every subscription's delivery digest and every
// aggregate report into one hex string.
func outputDigest(d []digest, reports []retina.AggregateReport) (string, error) {
	h := uint64(len(d))
	for _, x := range d {
		h = mix(h ^ x.n)
		h = mix(h ^ x.sum)
	}
	for _, r := range reports {
		b, err := json.Marshal(r)
		if err != nil {
			return "", fmt.Errorf("encoding aggregate report: %w", err)
		}
		h = hashString(h, string(b))
	}
	return fmt.Sprintf("%016x", h), nil
}

// ratio is a/b, or NaN when b is 0 (rendered n/a).
func ratio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}
