// Single-package tenantclose scenarios: the PR-3 leak shape, forgotten
// fields, early returns, deferred releases, accessor chains, intra-package
// holder nesting, range-released slices, and suppression.
package tenantclose

import "storage"

// --- the happy path ---------------------------------------------------------

type PagedGood struct {
	bm *storage.Tenant
}

func (p *PagedGood) Buffer() *storage.Tenant { return p.bm }

func (p *PagedGood) Close() error {
	p.bm.Detach()
	return nil
}

// --- the PR-3 leak: a tenant with no releasing method anywhere --------------

type PagedLeak struct {
	bm *storage.Tenant // want `PagedLeak holds a buffer-pool tenant in field bm but has no releasing method`
}

// --- a Close that forgets one of two tenants --------------------------------

type Forgets struct {
	a *storage.Tenant
	b *storage.Tenant // want `no releasing method of Forgets releases tenant field b`
}

func (f *Forgets) Close() { f.a.Detach() }

// --- early error return skips the release -----------------------------------

type EarlyLeak struct {
	bm *storage.Tenant
}

func (e *EarlyLeak) flush() error { return nil }

func (e *EarlyLeak) Close() error {
	if err := e.flush(); err != nil {
		return err // want `EarlyLeak\.Close returns before releasing tenant field bm`
	}
	e.bm.Detach()
	return nil
}

// --- defer covers every path ------------------------------------------------

type DeferredOK struct {
	bm *storage.Tenant
}

func (d *DeferredOK) check() error { return nil }

func (d *DeferredOK) Close() error {
	defer d.bm.Detach()
	if err := d.check(); err != nil {
		return err
	}
	return nil
}

// --- the idempotent-close idiom: local copy, nil the field, release ---------

type IdempotentClose struct {
	bm *storage.Tenant
}

func (c *IdempotentClose) Close() error {
	if c.bm == nil {
		return nil // nil-guarded: not a leaking early exit
	}
	bm := c.bm
	c.bm = nil
	return bm.Detach()
}

// --- intra-package holder nesting + release through an accessor chain -------

type Owner struct {
	paged *PagedGood
}

func (o *Owner) Close() { o.paged.Buffer().Detach() }

type OwnerLeak struct {
	paged *PagedGood // want `OwnerLeak holds a buffer-pool tenant in field paged but has no releasing method`
}

// --- slices of holders released through a range loop ------------------------

type Handle struct {
	bm *storage.Tenant
}

func (h *Handle) close() { h.bm.Detach() }

type Multi struct {
	handles []*Handle
}

func (m *Multi) Close() {
	for _, h := range m.handles {
		h.close()
	}
}

// --- deliberate exceptions are suppressed (and ratchet-counted) -------------

type PoolInternal struct {
	//lint:ignore vetrnn/tenantclose back-pointer owned by the pool, which detaches it itself
	owner *storage.Tenant
}
