package analysis

import (
	"encoding/json"
	"fmt"
	"reflect"
)

// FactStore holds every package fact of one analysis run, keyed by
// (analyzer, package path, fact type). One store is threaded through all
// packages of a run, processed in dependency order, so facts exported while
// analyzing internal/storage are visible when cmd/rnnserver is analyzed.
// Facts are kept encoded: an importer decodes its own copy and cannot
// disturb the exporter's.
type FactStore struct {
	m map[factKey]json.RawMessage
}

type factKey struct {
	analyzer string
	pkg      string
	typ      string
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{m: map[factKey]json.RawMessage{}}
}

// factTypeName is the stable name of a fact's concrete type.
func factTypeName(f Fact) string {
	t := reflect.TypeOf(f)
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return t.Name()
}

func (s *FactStore) export(analyzer, pkg string, fact Fact) error {
	data, err := json.Marshal(fact)
	if err != nil {
		return fmt.Errorf("analysis: encode %s fact %T for %s: %w", analyzer, fact, pkg, err)
	}
	s.m[factKey{analyzer, pkg, factTypeName(fact)}] = data
	return nil
}

func (s *FactStore) importInto(analyzer, pkg string, fact Fact) bool {
	data, ok := s.m[factKey{analyzer, pkg, factTypeName(fact)}]
	if !ok {
		return false
	}
	return json.Unmarshal(data, fact) == nil
}
