package lonely

import "testing"

func TestUnread(t *testing.T) {
	if Unread != 2 {
		t.Fatal(Unread)
	}
}
