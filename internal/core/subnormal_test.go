package core

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"biglittle/internal/apps"
	"biglittle/internal/event"
	"biglittle/internal/thermal"
)

// TestNoSubnormalFloats guards the simulator's float recurrences against
// the trap PELT fell into, where an idle load decays into the subnormal
// range and every multiply on it slows down. After a 600 s session of 30
// phases with the thermal model on, under interactive and ondemand, no float
// in the scheduler, metrics, governor, SoC or thermal state may be
// subnormal, except a task's PELT Load: sched.updateLoads stops decaying a
// sleeper once its load settles at or below pelt.IdleFloor, which is
// subnormal by design.
func TestNoSubnormalFloats(t *testing.T) {
	rotation := []apps.App{apps.Browser(), apps.EternityWarrior(), apps.VideoPlayer()}
	var phases []Phase
	for i := 0; i < 30; i++ {
		phases = append(phases, Phase{App: rotation[i%len(rotation)], Duration: 20 * event.Second})
	}
	for _, gov := range []GovernorKind{Interactive, Ondemand} {
		cfg := session(phases...)
		cfg.Governor = gov
		th := thermal.Default()
		cfg.Thermal = &th
		sim := Assemble(cfg)
		sim.RunTo(sim.cfg.Duration)
		loads := 0
		for _, part := range []struct {
			name string
			snap any
		}{
			{"sched", sim.sys.Snapshot()},
			{"metrics", sim.sampler.Snapshot()},
			{"governor", sim.gov.Snapshot()},
			{"soc", sim.soc.Snapshot()},
			{"thermal", sim.therm.Snapshot()},
		} {
			walkFloats(reflect.ValueOf(part.snap), part.name, func(path string, f float64) {
				if f == 0 || math.Abs(f) >= 0x1p-1022 {
					return
				}
				if strings.HasPrefix(path, "sched.Tasks[") && strings.HasSuffix(path, "].Load") {
					loads++
					return
				}
				t.Errorf("%s: %s = %g is subnormal", gov, path, f)
			})
		}
		t.Logf("%s: %d settled PELT loads are subnormal", gov, loads)
	}
}

// walkFloats calls fn with the path and value of every float reachable from
// v.
func walkFloats(v reflect.Value, path string, fn func(path string, f float64)) {
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		fn(path, v.Float())
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			walkFloats(v.Elem(), path, fn)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			walkFloats(v.Field(i), path+"."+v.Type().Field(i).Name, fn)
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			walkFloats(v.Index(i), fmt.Sprintf("%s[%d]", path, i), fn)
		}
	case reflect.Map:
		iter := v.MapRange()
		for iter.Next() {
			walkFloats(iter.Value(), fmt.Sprintf("%s[%v]", path, iter.Key()), fn)
		}
	}
}
