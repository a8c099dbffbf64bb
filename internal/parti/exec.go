package parti

import (
	"fmt"

	"eul3d/internal/euler"
	"eul3d/internal/simnet"
)

// This file holds the executors as per-processor send and receive halves.
// The distributed solver runs one goroutine per processor, each calling
// its own halves with a barrier between them: a gather sends owned values
// to the processors that ghost them and receives into ghost slots; a
// scatter-add, its transpose, sends ghost accumulations back to their
// owners (zeroing the ghost slots) and adds them in there.

// SendGatherStates packs and sends processor q's owned values for every
// destination of the schedule.
func (s *Schedule) SendGatherStates(f *simnet.Fabric, q int, data [][]euler.State) error {
	for p := 0; p < s.d.NProc; p++ {
		idx := s.sendIdx[q][p]
		if len(idx) == 0 {
			continue
		}
		buf := make([]float64, 0, len(idx)*euler.NVar)
		for _, li := range idx {
			v := data[q][li]
			buf = append(buf, v[:]...)
		}
		if err := f.Send(q, p, buf); err != nil {
			return err
		}
	}
	return nil
}

// RecvGatherStates receives processor p's ghost values from every sender
// of the schedule.
func (s *Schedule) RecvGatherStates(f *simnet.Fabric, p int, data [][]euler.State) error {
	for q := 0; q < s.d.NProc; q++ {
		slots := s.recvSlot[p][q]
		if len(slots) == 0 {
			continue
		}
		buf, err := recvHealing(f, p, q)
		if err != nil {
			return err
		}
		if len(buf) != len(slots)*euler.NVar {
			return fmt.Errorf("parti: gather %d<-%d: got %d floats, want %d", p, q, len(buf), len(slots)*euler.NVar)
		}
		for i, slot := range slots {
			copy(data[p][slot][:], buf[i*euler.NVar:(i+1)*euler.NVar])
		}
	}
	return nil
}

// SendScatterStates sends processor p's ghost accumulations back to their
// owners and zeroes the ghost slots.
func (s *Schedule) SendScatterStates(f *simnet.Fabric, p int, data [][]euler.State) error {
	for q := 0; q < s.d.NProc; q++ {
		slots := s.recvSlot[p][q]
		if len(slots) == 0 {
			continue
		}
		buf := make([]float64, 0, len(slots)*euler.NVar)
		for _, slot := range slots {
			v := data[p][slot]
			buf = append(buf, v[:]...)
			data[p][slot] = euler.State{}
		}
		if err := f.Send(p, q, buf); err != nil {
			return err
		}
	}
	return nil
}

// RecvScatterStates receives and accumulates the contributions owned by
// processor q.
func (s *Schedule) RecvScatterStates(f *simnet.Fabric, q int, data [][]euler.State) error {
	for p := 0; p < s.d.NProc; p++ {
		idx := s.sendIdx[q][p]
		if len(idx) == 0 {
			continue
		}
		buf, err := recvHealing(f, q, p)
		if err != nil {
			return err
		}
		if len(buf) != len(idx)*euler.NVar {
			return fmt.Errorf("parti: scatter-add %d<-%d: got %d floats, want %d", q, p, len(buf), len(idx)*euler.NVar)
		}
		for i, li := range idx {
			for k := 0; k < euler.NVar; k++ {
				data[q][li][k] += buf[i*euler.NVar+k]
			}
		}
	}
	return nil
}

// SendGatherFloats / RecvGatherFloats / SendScatterFloats /
// RecvScatterFloats are the scalar-array counterparts.

// SendGatherFloats packs and sends processor q's owned scalars.
func (s *Schedule) SendGatherFloats(f *simnet.Fabric, q int, data [][]float64) error {
	for p := 0; p < s.d.NProc; p++ {
		idx := s.sendIdx[q][p]
		if len(idx) == 0 {
			continue
		}
		buf := make([]float64, len(idx))
		for i, li := range idx {
			buf[i] = data[q][li]
		}
		if err := f.Send(q, p, buf); err != nil {
			return err
		}
	}
	return nil
}

// RecvGatherFloats receives processor p's scalar ghosts.
func (s *Schedule) RecvGatherFloats(f *simnet.Fabric, p int, data [][]float64) error {
	for q := 0; q < s.d.NProc; q++ {
		slots := s.recvSlot[p][q]
		if len(slots) == 0 {
			continue
		}
		buf, err := recvHealing(f, p, q)
		if err != nil {
			return err
		}
		if len(buf) != len(slots) {
			return fmt.Errorf("parti: gather %d<-%d: got %d floats, want %d", p, q, len(buf), len(slots))
		}
		for i, slot := range slots {
			data[p][slot] = buf[i]
		}
	}
	return nil
}

// SendScatterFloats sends processor p's scalar ghost accumulations home,
// zeroing the slots.
func (s *Schedule) SendScatterFloats(f *simnet.Fabric, p int, data [][]float64) error {
	for q := 0; q < s.d.NProc; q++ {
		slots := s.recvSlot[p][q]
		if len(slots) == 0 {
			continue
		}
		buf := make([]float64, len(slots))
		for i, slot := range slots {
			buf[i] = data[p][slot]
			data[p][slot] = 0
		}
		if err := f.Send(p, q, buf); err != nil {
			return err
		}
	}
	return nil
}

// RecvScatterFloats receives and accumulates scalars owned by q.
func (s *Schedule) RecvScatterFloats(f *simnet.Fabric, q int, data [][]float64) error {
	for p := 0; p < s.d.NProc; p++ {
		idx := s.sendIdx[q][p]
		if len(idx) == 0 {
			continue
		}
		buf, err := recvHealing(f, q, p)
		if err != nil {
			return err
		}
		if len(buf) != len(idx) {
			return fmt.Errorf("parti: scatter-add %d<-%d: got %d floats, want %d", q, p, len(buf), len(idx))
		}
		for i, li := range idx {
			data[q][li] += buf[i]
		}
	}
	return nil
}
