package halo_test

import (
	"bytes"
	"testing"

	"halo"
)

func TestFacadeMemoryAndDMA(t *testing.T) {
	sys := halo.New()
	buf := sys.AllocLines(2)
	data := []byte("ddio-delivered header bytes")
	sys.DMAWrite(buf, data)
	got := make([]byte, len(data))
	sys.ReadMemory(buf, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("DMA round trip = %q", got)
	}
	// The delivered line is usable as an accelerator key source.
	table, err := sys.NewTable(halo.TableConfig{Entries: 64, KeyLen: 16})
	if err != nil {
		t.Fatal(err)
	}
	key := facadeKey(1)
	if err := table.Insert(key, 42); err != nil {
		t.Fatal(err)
	}
	sys.DMAWrite(buf, key)
	th := sys.Thread(0)
	if v, ok := sys.Unit().LookupBAt(th, table.Base(), buf); !ok || v != 42 {
		t.Fatalf("in-place lookup = (%d,%v)", v, ok)
	}
}

func TestFacadeWithConfig(t *testing.T) {
	cfg := halo.DefaultPlatformConfig()
	cfg.Unit.Accel.ScoreboardDepth = 4
	custom := halo.New(halo.WithConfig(cfg))
	if custom.Cores() != 16 {
		t.Fatalf("cores = %d", custom.Cores())
	}
	sw, err := custom.NewSwitch(halo.DefaultSwitchConfig())
	if err != nil {
		t.Fatal(err)
	}
	if sw == nil {
		t.Fatal("nil switch")
	}
}
