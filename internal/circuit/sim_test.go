package circuit

import (
	"testing"
)

// paNetlist is a single-transistor RF stage of the power-amplifier testbench's
// shape: a MOSFET driven by a biased sine through a choke into an LC load.
func paNetlist() *Circuit {
	c := New()
	c.AddVSource("VDD", "vdd", Ground, DC(1.5))
	c.AddVSource("VIN", "g", Ground, Sine{Offset: 1.1, Amplitude: 0.6, Freq: 2.4e9})
	c.AddInductor("LCHOKE", "vdd", "d", 8e-9)
	c.AddMOSFET("M1", "d", "g", Ground, MOSParams{W: 0.3e-3, L: 65e-9, VTH: 0.9, KP: 300e-6, Lambda: 0.1})
	c.AddCapacitor("CS", "d", "out", 11e-12)
	c.AddCapacitor("CP", "out", Ground, 1.1e-12)
	c.AddResistor("RL", "out", Ground, 50)
	return c
}

// A steady-state Newton solve (a transient step after warm-up) restamps the
// Sim's workspace and allocates nothing.
func TestNewtonSteadyStateZeroAlloc(t *testing.T) {
	s := NewSim(paNetlist())
	op, err := s.DC()
	if err != nil {
		t.Fatal(err)
	}
	x := op.X
	for _, d := range s.ckt.Devices() {
		if sd, ok := d.(statefulDevice); ok {
			sd.initState(x)
		}
	}
	dt := 1 / 2.4e9 / 48
	for k := 1; k <= 20; k++ {
		if err := s.newton(x, float64(k)*dt, dt, 1e-12); err != nil {
			t.Fatal(err)
		}
		for _, d := range s.ckt.Devices() {
			if sd, ok := d.(statefulDevice); ok {
				sd.updateState(x, dt)
			}
		}
	}
	prev := append([]float64(nil), x...)
	var solveErr error
	allocs := testing.AllocsPerRun(50, func() {
		copy(x, prev)
		solveErr = s.newton(x, 21*dt, dt, 1e-12)
	})
	if solveErr != nil {
		t.Fatal(solveErr)
	}
	if allocs != 0 {
		t.Fatalf("steady-state newton allocates %.1f times per solve", allocs)
	}
}

// Transient samples are capacity-capped views of one flat store: each row
// holds its own step's solution, and appending to a row cannot overwrite the
// next one.
func TestTransientSamplesAreCappedViews(t *testing.T) {
	s := NewSim(paNetlist())
	wf, err := s.Transient(4/2.4e9, 1/2.4e9/16)
	if err != nil {
		t.Fatal(err)
	}
	if len(wf.Data) != len(wf.Times) || len(wf.Times) != 65 {
		t.Fatalf("%d samples at %d times, want 65", len(wf.Data), len(wf.Times))
	}
	for k, row := range wf.Data {
		if len(row) != s.Size() || cap(row) != s.Size() {
			t.Fatalf("Data[%d] has len %d cap %d, want %d", k, len(row), cap(row), s.Size())
		}
	}
	next := append([]float64(nil), wf.Data[1]...)
	_ = append(wf.Data[0], 42)
	for i, v := range wf.Data[1] {
		if v != next[i] {
			t.Fatal("appending to Data[0] overwrote Data[1]")
		}
	}
	out, err := wf.NodeVoltages("out")
	if err != nil {
		t.Fatal(err)
	}
	idx := s.ckt.nodes["out"]
	for k, v := range out {
		if v != wf.Data[k][idx] {
			t.Fatalf("NodeVoltages[%d] = %v, Data says %v", k, v, wf.Data[k][idx])
		}
	}
}
