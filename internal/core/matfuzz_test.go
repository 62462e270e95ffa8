package core

import (
	"math/rand"
	"testing"

	"graphrnn/internal/graph"
	"graphrnn/internal/points"
	"graphrnn/internal/storage"
)

// pagesToBytes flattens a paged file for the fuzz corpus.
func pagesToBytes(t testing.TB, f storage.PagedFile) []byte {
	t.Helper()
	buf := make([]byte, f.PageSize())
	out := make([]byte, 0, f.NumPages()*f.PageSize())
	for p := 0; p < f.NumPages(); p++ {
		if err := f.Read(storage.PageID(p), buf); err != nil {
			t.Fatal(err)
		}
		out = append(out, buf...)
	}
	return out
}

// bytesToPages chunks fuzz bytes into a MemFile, zero-padding the tail —
// the torn-write shape: a prefix of full pages plus one partial page.
func bytesToPages(b []byte, pageSize int) *storage.MemFile {
	f := storage.NewMemFile(pageSize)
	page := make([]byte, pageSize)
	for off := 0; off < len(b); off += pageSize {
		for i := range page {
			page[i] = 0
		}
		copy(page, b[off:])
		if _, err := f.Append(page); err != nil {
			panic(err) // MemFile.Append with a full page cannot fail
		}
	}
	return f
}

// fuzzSeedMat builds a small materialization, persists it, and returns
// the raw bytes of the mat file and of a journal holding the records of
// an uncommitted operation (the crash shape recovery must parse).
func fuzzSeedMat(f *testing.F) (matBytes, journalBytes []byte) {
	rng := rand.New(rand.NewSource(80))
	g := randNet(f, rng, 20, 25, 1)
	ps := randPoints(f, rng, g, 4)
	s := NewSearcher(g)
	mat, err := matBuild(s, PointSet{Node: ps}, 2, storage.NewMemFile(storage.DefaultPageSize), 16, nil)
	if err != nil {
		f.Fatal(err)
	}
	tab := ps.Table()
	pts := make([]PointRecord, len(tab))
	for i, n := range tab {
		if n < 0 {
			pts[i] = PointAbsent
		} else {
			pts[i] = PointRecord{U: n, V: n}
		}
	}
	file := storage.NewMemFile(storage.DefaultPageSize)
	jfile := storage.NewMemFile(storage.DefaultPageSize)
	if err := MatSave(mat, MatKindNode, pts, file); err != nil {
		f.Fatal(err)
	}
	bm := storage.NewBufferPool(16).Attach("", file, 0)
	m2, _, rec, err := MatOpen(file, bm, jfile)
	if err != nil {
		f.Fatal(err)
	}
	ns, err := points.RestoreNodeSet(m2.NumNodes(), func() []graph.NodeID {
		nodes := make([]graph.NodeID, len(rec))
		for i, r := range rec {
			if r.U < 0 {
				nodes[i] = -1
			} else {
				nodes[i] = r.U
			}
		}
		return nodes
	}())
	if err != nil {
		f.Fatal(err)
	}
	// Abandon an insertion without rollback so the file carries a pending
	// header and the journal carries real records.
	var node graph.NodeID = -1
	for n := 0; n < m2.NumNodes(); n++ {
		if _, taken := ns.PointAt(graph.NodeID(n)); !taken {
			node = graph.NodeID(n)
			break
		}
	}
	if node >= 0 {
		p, err := ns.Place(node)
		if err != nil {
			f.Fatal(err)
		}
		if err := m2.BeginRepair(nil); err != nil {
			f.Fatal(err)
		}
		if _, err := s.MatInsert(m2, p, NodeLoc(node)); err != nil {
			f.Fatal(err)
		}
		if err := m2.Flush(); err != nil {
			f.Fatal(err)
		}
		m2.AbandonRepair()
	}
	return pagesToBytes(f, file), pagesToBytes(f, jfile)
}

// FuzzMatOpen feeds torn, truncated and mutated materialization + journal
// bytes to the reopen path. The contract under fuzz: MatOpen returns a
// typed error or a working materialization — it never panics, and a
// successful open serves every list without panicking.
func FuzzMatOpen(f *testing.F) {
	matBytes, journalBytes := fuzzSeedMat(f)
	f.Add(matBytes, journalBytes)
	f.Add(matBytes, []byte{})
	f.Add(matBytes[:storage.DefaultPageSize], journalBytes)
	f.Add(matBytes[:len(matBytes)/2], journalBytes[:len(journalBytes)/2])
	f.Add([]byte("GRNNMAT2 not really a materialization"), []byte("junk"))
	f.Add([]byte{}, []byte{})

	f.Fuzz(func(t *testing.T, mb, jb []byte) {
		const limit = 1 << 20
		if len(mb) > limit || len(jb) > limit {
			t.Skip("oversized input")
		}
		file := bytesToPages(mb, storage.DefaultPageSize)
		jfile := bytesToPages(jb, storage.DefaultPageSize)
		bm := storage.NewBufferPool(8).Attach("", file, 0)
		m, _, pts, err := MatOpen(file, bm, jfile)
		if err != nil {
			return // rejected with an error: the contract holds
		}
		// A file MatOpen accepted must serve reads; corruption found past
		// open must surface as errors, not panics.
		var lst []MatEntry
		for n := 0; n < m.NumNodes(); n++ {
			lst, _ = m.List(graph.NodeID(n), lst)
		}
		_ = pts
	})
}
