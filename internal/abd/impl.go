package abd

import (
	"fmt"

	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/sched"
	"github.com/drv-go/drv/internal/sut"
)

// RegisterImpl adapts an emulated register to the sut.Impl interface, so the
// whole monitoring stack — workloads, history recording, the timed adversary
// Aτ, the predictive monitors — runs over message passing unchanged. This is
// the package-level deliverable of the paper's porting remark.
type RegisterImpl struct {
	reg  *Register
	name string
}

var _ sut.Impl = (*RegisterImpl)(nil)

// NewRegisterImpl wraps an emulated register.
func NewRegisterImpl(reg *Register) *RegisterImpl {
	return &RegisterImpl{reg: reg, name: "register/abd"}
}

// WithName overrides the reported implementation name (bug variants).
func (r *RegisterImpl) WithName(name string) *RegisterImpl {
	r.name = name
	return r
}

// Name implements sut.Impl.
func (r *RegisterImpl) Name() string { return r.name }

// Reset implements sut.Impl by delegation to the wrapped emulation.
func (r *RegisterImpl) Reset(n int) { r.reg.Reset(n) }

// Invoke implements sut.Impl.
func (r *RegisterImpl) Invoke(p *sched.Proc, op string, arg trace.Value) trace.Value {
	switch op {
	case trace.OpWrite:
		r.reg.Write(p, int64(arg.(trace.Int)))
		return trace.Unit{}
	case trace.OpRead:
		return trace.Int(r.reg.Read(p))
	default:
		panic(fmt.Sprintf("abd: register does not implement %q", op))
	}
}
