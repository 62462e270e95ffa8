package storage

// Index exposes the store's node → first-fragment directory to the
// external tests of this package.
func (s *DiskStore) Index() []RecRef { return s.index }
