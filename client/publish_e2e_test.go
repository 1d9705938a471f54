package client_test

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"orchestra"
	"orchestra/client"
)

// TestBinaryPublishEndToEnd publishes through the typed batch frame and
// reads the rows back, covering server-side type coercion of typed
// batches (ints into a float column) and a column mixing ints and
// floats.
func TestBinaryPublishEndToEnd(t *testing.T) {
	_, srv := serveCluster(t, 1, orchestra.ServeOptions{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	cl, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Create(ctx, "bp", []string{"item:string", "qty:int", "price:float"}, "item"); err != nil {
		t.Fatal(err)
	}

	// Homogeneous columns. The price column is fed ints — the server
	// coerces them onto float.
	if _, err := cl.Publish(ctx, "bp", [][]any{
		{"bolt", 90, 10},
		{"nut", 120, 25},
	}); err != nil {
		t.Fatalf("binary publish: %v", err)
	}
	// Mixed ints and floats within the price column: the client sends
	// the column as floats.
	if _, err := cl.Publish(ctx, "bp", [][]any{
		{"washer", 7, 1},
		{"screw", 55, 2.5},
	}); err != nil {
		t.Fatalf("mixed-column publish: %v", err)
	}

	res, err := cl.Query(ctx, "SELECT item, qty, price FROM bp WHERE qty >= 0")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(res.Rows))
	}
	prices := map[string]float64{}
	for _, r := range res.Rows {
		prices[r[0].(string)] = r[2].(float64)
	}
	want := map[string]float64{"bolt": 10, "nut": 25, "washer": 1, "screw": 2.5}
	for item, p := range want {
		if prices[item] != p {
			t.Fatalf("item %q price %v, want %v (all: %v)", item, prices[item], p, prices)
		}
	}

	// A typed batch violating the schema (string into an int column)
	// surfaces the server's bad_request, not a torn connection.
	if _, err := cl.Publish(ctx, "bp", [][]any{{"bad", "not-an-int", 1.0}}); err == nil {
		t.Fatal("schema-violating publish succeeded")
	} else if !errors.Is(err, client.ErrBadRequest) {
		t.Fatalf("schema-violating publish: %v", err)
	}
	// The connection survives the rejected publish.
	if _, err := cl.Query(ctx, "SELECT item FROM bp WHERE qty = 90"); err != nil {
		t.Fatalf("query after rejected publish: %v", err)
	}
}

// TestPublishValueTypes pins which publish inputs are stored and how:
// a column mixing ints and floats lands as the column's type either way,
// and a value the column cannot hold, or a Go type outside int, int64,
// float64 and string, fails with ErrBadRequest and stores nothing.
func TestPublishValueTypes(t *testing.T) {
	_, srv := serveCluster(t, 1, orchestra.ServeOptions{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cl, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Create(ctx, "mix", []string{"k:string", "f:float", "i:int"}, "k"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		rows   [][]any
		stored [][]any // rows (k, f, i) the publish adds; nil when it fails
		server bool    // the failure is the server's verdict, not the client's
	}{
		{"mixed column into float column", [][]any{{"a", 1, 5}, {"b", 2.5, 6}},
			[][]any{{"a", 1.0, int64(5)}, {"b", 2.5, int64(6)}}, false},
		{"mixed column into int column", [][]any{{"c", 3.0, 7}, {"d", 4.0, 8.0}},
			[][]any{{"c", 3.0, int64(7)}, {"d", 4.0, int64(8)}}, false},
		{"non-integral float into int column", [][]any{{"e", 1.0, 9}, {"f", 1.0, 9.5}}, nil, true},
		{"bool", [][]any{{"g", true, 1}}, nil, false},
		{"string into int column", [][]any{{"h", 1.0, "ten"}}, nil, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := cl.Publish(ctx, "mix", tc.rows)
			if tc.stored == nil {
				var se *client.Error
				if !errors.Is(err, client.ErrBadRequest) || errors.As(err, &se) != tc.server {
					t.Fatalf("publish: %v, want ErrBadRequest (from server: %v)", err, tc.server)
				}
			} else if err != nil {
				t.Fatalf("publish: %v", err)
			}
			// Each case's keys are consecutive letters no other case uses.
			lo, hi := tc.rows[0][0].(string), tc.rows[len(tc.rows)-1][0].(string)
			res, err := cl.Query(ctx, "SELECT k, f, i FROM mix WHERE k >= '"+lo+"' AND k <= '"+hi+"' ORDER BY k")
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != len(tc.stored) || (len(tc.stored) > 0 && !reflect.DeepEqual(res.Rows, tc.stored)) {
				t.Fatalf("stored %v, want %v", res.Rows, tc.stored)
			}
		})
	}
}

// TestStreamedLimitQuery drives a LIMIT query through the streamed wire
// path end to end (the limit-only pushdown completes collection early
// server-side; the stream must still deliver exactly N rows).
func TestStreamedLimitQuery(t *testing.T) {
	c, srv := serveCluster(t, 1, orchestra.ServeOptions{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := c.CreateRelation(orchestra.NewSchema("lim", "k:string", "v:int").Key("k")); err != nil {
		t.Fatal(err)
	}
	cl, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rows := make([][]any, 0, 3000)
	for i := 0; i < 3000; i++ {
		rows = append(rows, []any{item(i), i})
	}
	for lo := 0; lo < len(rows); lo += 500 {
		if _, err := cl.Publish(ctx, "lim", rows[lo:lo+500]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := cl.Query(ctx, "SELECT k, v FROM lim WHERE v >= 0 LIMIT 37")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 37 {
		t.Fatalf("LIMIT 37 delivered %d rows", len(res.Rows))
	}
	seen := map[string]bool{}
	for _, r := range res.Rows {
		k := r[0].(string)
		if seen[k] {
			t.Fatalf("duplicate key %q in limited answer", k)
		}
		seen[k] = true
	}
}

func item(i int) string {
	const digits = "0123456789"
	return "k" + string([]byte{
		digits[i/1000%10], digits[i/100%10], digits[i/10%10], digits[i%10],
	})
}
