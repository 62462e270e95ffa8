package exec

// Ctx mirrors the execution context the contract is about.
type Ctx struct{ budget int64 }

func New() *Ctx { return &Ctx{} }

func (e *Ctx) Check(work int64) error {
	e.budget -= work
	return nil
}
