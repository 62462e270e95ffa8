// Package storage is a minimal stand-in for the repo's buffer-pool
// package: the analyzer recognizes Tenant by package-path suffix and type
// name.
package storage

type BufferPool struct {
	tenants map[string]*Tenant
}

type Tenant struct {
	pool *BufferPool
	name string
}

func (p *BufferPool) Attach(name string) *Tenant {
	t := &Tenant{pool: p, name: name}
	p.tenants[name] = t
	return t
}

func (t *Tenant) Detach() error { return nil }
