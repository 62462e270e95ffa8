package storage

// Index exposes the store's node → first-fragment directory to the
// external tests of this package.
func (s *DiskStore) Index() []RecRef { return s.index }

// LRUPages returns the pages the tenant holds, most recently used first.
func (t *Tenant) LRUPages() []PageID {
	t.pool.mu.Lock()
	defer t.pool.mu.Unlock()
	var out []PageID
	for fr := t.lru.front; fr != nil; fr = fr.next {
		out = append(out, fr.id)
	}
	return out
}
