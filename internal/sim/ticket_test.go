package sim

import "testing"

func TestTicketLatency(t *testing.T) {
	tk := Ticket{Issued: 5, Done: 10}
	if tk.Latency() != 5 {
		t.Fatalf("latency = %d, want 5", tk.Latency())
	}
}
