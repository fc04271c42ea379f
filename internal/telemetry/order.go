package telemetry

import (
	"encoding/json"
	"slices"
	"strings"
)

// The canonical record order — the one WriteJSONL exports, Tracer.Records
// returns, and every trace consumer (the SLO monitor, slotool) analyzes
// in — is a stable sort by (T0, Name, marshaled Attrs). It is defined
// here and nowhere else.

// compareHead orders two records by (T0, Name), the part of the key that
// needs no marshaling.
func compareHead(a, b *Record) int {
	switch {
	case a.T0 < b.T0:
		return -1
	case a.T0 > b.T0:
		return 1
	}
	return strings.Compare(a.Name, b.Name)
}

// attrsKey is the final tiebreak: the attrs' JSON encoding (encoding/json
// sorts map keys, so equal maps give equal keys).
func attrsKey(a Attrs) string {
	b, _ := json.Marshal(a)
	return string(b)
}

// CompareRecords reports the canonical order of a and b as -1, 0 or +1.
// Attrs are marshaled only when (T0, Name) tie.
func CompareRecords(a, b Record) int {
	if c := compareHead(&a, &b); c != 0 {
		return c
	}
	return strings.Compare(attrsKey(a.Attrs), attrsKey(b.Attrs))
}

// SortRecords stably sorts recs in place into the canonical order.
// Records with equal keys keep their input order. Each record's attrs are
// marshaled at most once, and only if its (T0, Name) ties with another
// record's, so a trace of distinct timestamps sorts without marshaling.
func SortRecords(recs []Record) {
	if len(recs) < 2 {
		return
	}
	// perm[k] is the input index of the record that lands at position k.
	// Sorting by (T0, Name, input index) is the stable sort on (T0, Name).
	perm := make([]int32, len(recs))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(i, j int32) int {
		if c := compareHead(&recs[i], &recs[j]); c != 0 {
			return c
		}
		return int(i - j)
	})

	// Each run of (T0, Name) ties is in input order; stable-sort it by
	// the attrs key, marshaling each member once.
	type tied struct {
		key string
		idx int32
	}
	var run []tied
	for lo := 0; lo < len(perm); {
		hi := lo + 1
		for hi < len(perm) && compareHead(&recs[perm[lo]], &recs[perm[hi]]) == 0 {
			hi++
		}
		if hi-lo > 1 {
			run = run[:0]
			for _, i := range perm[lo:hi] {
				run = append(run, tied{attrsKey(recs[i].Attrs), i})
			}
			slices.SortStableFunc(run, func(a, b tied) int { return strings.Compare(a.key, b.key) })
			for k, t := range run {
				perm[lo+k] = t.idx
			}
		}
		lo = hi
	}

	// Apply perm in place, one cycle at a time; a placed slot is marked -1.
	for s := range perm {
		if perm[s] < 0 {
			continue
		}
		held := recs[s]
		k := s
		for {
			src := int(perm[k])
			perm[k] = -1
			if src == s {
				recs[k] = held
				break
			}
			recs[k] = recs[src]
			k = src
		}
	}
}
