package graphrnn

import (
	"context"
	"encoding/binary"
	"slices"
	"testing"
)

// FuzzShardMerge feeds adversarial per-shard result sets — the bytes a
// compromised or buggy remote shard could answer with — through the
// coordinator's merge + verify pass and checks the safety properties
// that make scatter-gather trustworthy regardless of shard behavior:
//
//   - no panic, whatever the candidate ids (negative, huge, duplicated,
//     deleted, unsorted);
//   - the verified answer is sorted, duplicate-free, and a subset of the
//     brute-oracle answer (soundness: verification never confirms a
//     non-member);
//   - when the candidate union covers every true member, the verified
//     answer equals the oracle exactly (completeness: verification never
//     rejects a member).
//
// Input format: byte 0 picks the query kind, byte 1 the list count, the
// rest are little-endian int16 candidate ids dealt round-robin into the
// per-shard lists.
func FuzzShardMerge(f *testing.F) {
	db, ps := shardOracleEnv(f, "road", 200, 3, 23)
	sites, err := db.PlaceRandomNodePoints(41, 8)
	if err != nil {
		f.Fatal(err)
	}
	// Dead ids inside the id space: a shard may still propose them.
	deleted := []PointID{ps.Points()[2], ps.Points()[ps.Len()/2]}
	for _, p := range deleted {
		if err := ps.Delete(p); err != nil {
			f.Fatal(err)
		}
	}
	sh, err := db.Shard(ps, &ShardOptions{Shards: 3, Sites: sites, Runner: &fakeRunner{}})
	if err != nil {
		f.Fatal(err)
	}
	qnode := NodeID(db.Graph().NumNodes() / 2)
	route := db.RandomWalkRoute(3, 4)
	queries := []Query{
		{Kind: KindRNN, Target: NodeLocation(qnode), K: 2},
		{Kind: KindBichromatic, Target: NodeLocation(qnode), K: 2},
		{Kind: KindContinuous, Route: route, K: 2},
	}
	oracles := make([][]PointID, len(queries))
	members := make([]map[PointID]bool, len(queries))
	for i, q := range queries {
		uq := q
		uq.Points = ps
		if q.Kind == KindBichromatic {
			uq.Sites = sites
		}
		res, err := db.Run(context.Background(), uq)
		if err != nil {
			f.Fatal(err)
		}
		oracles[i] = res.Points
		members[i] = make(map[PointID]bool, len(res.Points))
		for _, p := range res.Points {
			members[i][p] = true
		}
	}

	// Seed corpus: the honest case (every live point as a candidate — a
	// guaranteed superset of the truth) for each kind, plus adversarial
	// shapes.
	for kind := range queries {
		honest := []byte{byte(kind), 3}
		for _, p := range append(ps.Points(), deleted...) {
			honest = binary.LittleEndian.AppendUint16(honest, uint16(p))
		}
		f.Add(honest)
	}
	f.Add([]byte{0, 0})
	f.Add([]byte{0, 1, 0xff, 0xff, 0xff, 0x7f, 0x00, 0x80})
	f.Add([]byte{2, 4, 1, 0, 1, 0, 1, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		qi := int(data[0]) % len(queries)
		nlists := int(data[1])%4 + 1
		lists := make([][]PointID, nlists)
		for i, rest := 0, data[2:]; len(rest) >= 2; i, rest = i+1, rest[2:] {
			p := PointID(int16(binary.LittleEndian.Uint16(rest)))
			lists[i%nlists] = append(lists[i%nlists], p)
		}
		cands := mergeCandidates(lists)
		for i := 1; i < len(cands); i++ {
			if cands[i-1] >= cands[i] {
				t.Fatalf("merge not strictly ascending at %d: %v", i, cands[:i+1])
			}
		}
		covered := true
		for _, p := range oracles[qi] {
			if !slices.Contains(cands, p) {
				covered = false
				break
			}
		}
		res, err := sh.verifyCandidates(nil, queries[qi], cands, Stats{})
		if err != nil {
			t.Fatalf("verify over adversarial candidates errored: %v", err)
		}
		for i, p := range res.Points {
			if i > 0 && res.Points[i-1] >= p {
				t.Fatalf("answer not strictly ascending: %v", res.Points)
			}
			if !members[qi][p] {
				t.Fatalf("verification confirmed non-member %d (kind %v)", p, queries[qi].Kind)
			}
		}
		if covered && len(res.Points) != len(oracles[qi]) {
			t.Fatalf("candidates covered the truth but answer %v != oracle %v (kind %v)",
				res.Points, oracles[qi], queries[qi].Kind)
		}
	})
}
