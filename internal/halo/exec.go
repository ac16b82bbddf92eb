package halo

import (
	"fmt"

	"halo/internal/cpu"
	"halo/internal/isa"
	"halo/internal/mem"
)

// Regs is the architectural register file visible to HALO instructions. RAX
// carries the implicit table-address operand (paper §4.5).
type Regs [16]uint64

// Execute runs one decoded HALO instruction on a thread, with functional and
// timing effects:
//
//   - LOOKUP_B dispatches a blocking query and writes the result word into
//     the destination register when it returns;
//   - LOOKUP_NB dispatches a non-blocking query and retires immediately; the
//     accelerator deposits the result word at ResultAddr;
//   - SNAPSHOT_READ loads ResultAddr without taking ownership and writes the
//     value into the destination register.
//
// This is the glue that makes the isa package executable: programs encoded
// with isa.Instruction.Encode can be decoded and run against a simulated
// platform instruction by instruction.
func (u *Unit) Execute(th *cpu.Thread, regs *Regs, in isa.Instruction) error {
	switch in.Op {
	case isa.OpLookupB:
		th.ALU(1)
		th.Other(1)
		r := u.dispatch(th.Now, Query{
			Core:      th.Core,
			TableAddr: mem.Addr(regs[isa.RAX]),
			KeyAddr:   mem.Addr(in.KeyAddr),
		})
		th.WaitUntil(r.Done + u.cmdDelay(r.Slice, th.Core))
		word := EncodeResult(r.Value, r.Found)
		if r.Fault {
			word |= ResultFault
		}
		regs[in.DstReg] = word
		return nil

	case isa.OpLookupNB:
		th.ALU(1)
		th.Other(1)
		u.dispatch(th.Now, Query{
			Core:        th.Core,
			TableAddr:   mem.Addr(regs[isa.RAX]),
			KeyAddr:     mem.Addr(in.KeyAddr),
			ResultAddr:  mem.Addr(in.ResultAddr),
			NonBlocking: true,
		})
		return nil

	case isa.OpSnapshotRead:
		th.SnapshotRead(mem.Addr(in.ResultAddr))
		regs[in.DstReg] = u.space.Load64(mem.Addr(in.ResultAddr))
		return nil
	}
	return fmt.Errorf("halo: cannot execute %v", in.Op)
}

// ExecuteProgram decodes and executes an encoded instruction stream,
// returning the number of instructions retired.
func (u *Unit) ExecuteProgram(th *cpu.Thread, regs *Regs, program []byte) (int, error) {
	n := 0
	for len(program) > 0 {
		in, size, err := isa.Decode(program)
		if err != nil {
			return n, fmt.Errorf("halo: at instruction %d: %w", n, err)
		}
		if err := u.Execute(th, regs, in); err != nil {
			return n, err
		}
		program = program[size:]
		n++
	}
	return n, nil
}
