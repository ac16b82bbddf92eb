package lonely

import "testing"

func TestUnread(t *testing.T) {
	if Unread != 2 || testOnly() != 3 {
		t.Fatal(Unread, testOnly())
	}
}
