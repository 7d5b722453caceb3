package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"parallellives/internal/asn"
)

// class is a request's endpoint class; latencies are kept per class so
// that the LRU-miss path (ASN reads) and the LRU-hit path (series and
// taxonomy) stay apart.
type class uint8

const (
	classASN class = iota
	classSeries
	classTaxonomy
	numClasses
)

var classNames = [numClasses]string{"asn", "series", "taxonomy"}

// request is one generated read. asn is set for ASN reads, so a caller
// can find the shard that owns it.
type request struct {
	class class
	path  string
	asn   asn.ASN
}

// seriesStrides are the downsampling variants of the series reads.
var seriesStrides = []int{7, 30, 90}

// reqTable is the part of the request sequence fixed by the seed alone:
// the ASN working set and the aggregate paths.
type reqTable struct {
	sz          sizing
	asns        []asn.ASN
	asnPaths    []string
	seriesPaths []string
}

// newReqTable shuffles the population by seed and keeps the first
// WorkingSet ASNs, so different seeds read different ASNs in a
// different order.
func newReqTable(seed int64, population []asn.ASN, sz sizing) *reqTable {
	t := &reqTable{sz: sz, asns: append([]asn.ASN(nil), population...)}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(t.asns), func(i, j int) { t.asns[i], t.asns[j] = t.asns[j], t.asns[i] })
	if len(t.asns) > sz.WorkingSet {
		t.asns = t.asns[:sz.WorkingSet]
	}
	for _, a := range t.asns {
		t.asnPaths = append(t.asnPaths, asnPath(a))
	}
	for _, r := range asn.All() {
		for _, stride := range seriesStrides {
			t.seriesPaths = append(t.seriesPaths, fmt.Sprintf("/v1/rir/%s/series?stride=%d", r.Token(), stride))
		}
	}
	return t
}

func asnPath(a asn.ASN) string { return "/v1/asn/" + strconv.FormatUint(uint64(a), 10) }

// reqGen is one client's request sequence: a pure function of the seed,
// the client's index and the table.
type reqGen struct {
	t   *reqTable
	rng *rand.Rand
}

func (t *reqTable) client(seed int64, client int) *reqGen {
	return &reqGen{t: t, rng: rand.New(rand.NewSource(seed*1_000_003 + int64(client) + 1))}
}

func (g *reqGen) next() request {
	sz := g.t.sz
	switch w := g.rng.Intn(sz.MixASN + sz.MixSeries + sz.MixTaxonomy); {
	case w < sz.MixASN:
		if g.rng.Intn(1000) < sz.MissPermille {
			// Anywhere in the 32-bit space: almost surely absent, a 404.
			a := asn.ASN(g.rng.Uint32())
			return request{class: classASN, path: asnPath(a), asn: a}
		}
		i := g.rng.Intn(len(g.t.asns))
		return request{class: classASN, path: g.t.asnPaths[i], asn: g.t.asns[i]}
	case w < sz.MixASN+sz.MixSeries:
		return request{class: classSeries, path: g.t.seriesPaths[g.rng.Intn(len(g.t.seriesPaths))]}
	default:
		return request{class: classTaxonomy, path: "/v1/taxonomy"}
	}
}
