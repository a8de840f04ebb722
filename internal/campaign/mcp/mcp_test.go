package mcp

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"splapi/internal/campaign/server"
)

// rpc builds one JSON-RPC request line.
func rpc(id int, method string, params string) string {
	if params == "" {
		return fmt.Sprintf(`{"jsonrpc":"2.0","id":%d,"method":%q}`, id, method)
	}
	return fmt.Sprintf(`{"jsonrpc":"2.0","id":%d,"method":%q,"params":%s}`, id, method, params)
}

func call(id int, tool, args string) string {
	return rpc(id, "tools/call", fmt.Sprintf(`{"name":%q,"arguments":%s}`, tool, args))
}

// toolText unwraps a tools/call response into its text payload, failing
// on protocol or tool errors.
func toolText(t *testing.T, resp map[string]json.RawMessage) string {
	t.Helper()
	if e, ok := resp["error"]; ok {
		t.Fatalf("rpc error: %s", e)
	}
	var res struct {
		Content []struct {
			Type string `json:"type"`
			Text string `json:"text"`
		} `json:"content"`
		IsError bool `json:"isError"`
	}
	if err := json.Unmarshal(resp["result"], &res); err != nil {
		t.Fatalf("bad tool result: %v in %s", err, resp["result"])
	}
	if res.IsError {
		t.Fatalf("tool error: %s", res.Content[0].Text)
	}
	if len(res.Content) != 1 || res.Content[0].Type != "text" {
		t.Fatalf("unexpected content shape: %+v", res.Content)
	}
	return res.Content[0].Text
}

// One session end to end over the stdio transport: handshake, tool
// discovery, a sweep campaign submitted twice (second a cache hit), a
// second sweep, the artifacts fetched by digest and by job id, and a
// self-comparison of a sweep artifact through the regression gate.
func TestServeSession(t *testing.T) {
	svc, err := server.NewService(server.Config{Git: "mcp-test", CacheDir: t.TempDir(), Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain(context.Background())
	srv := New(svc, "mcp-test")

	ring := `{"kind":"sweep","experiment":"ring","seeds":1}`
	input := strings.Join([]string{
		rpc(1, "initialize", `{"protocolVersion":"2024-11-05","capabilities":{}}`),
		`{"jsonrpc":"2.0","method":"notifications/initialized"}`,
		rpc(2, "tools/list", ""),
		call(3, "list_experiments", `{}`),
		call(4, "submit_campaign", ring),
		call(5, "submit_campaign", ring),
		rpc(6, "nonsense/method", ""),
		call(7, "submit_campaign", `{"kind":"sweep","experiment":"ring","seeds":1,"baseSeed":2}`),
	}, "\n") + "\n"

	var out bytes.Buffer
	if err := srv.Serve(context.Background(), strings.NewReader(input), &out); err != nil {
		t.Fatalf("Serve = %v", err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	// 8 inputs, 1 notification: 7 responses.
	if len(lines) != 7 {
		t.Fatalf("got %d response lines, want 7:\n%s", len(lines), out.String())
	}
	resps := make([]map[string]json.RawMessage, len(lines))
	for i, line := range lines {
		if err := json.Unmarshal([]byte(line), &resps[i]); err != nil {
			t.Fatalf("response %d is not JSON: %q", i, line)
		}
	}

	if !strings.Contains(string(resps[0]["result"]), `"spsimd"`) {
		t.Fatalf("initialize result: %s", resps[0]["result"])
	}
	var toolList struct {
		Tools []struct {
			Name string `json:"name"`
		} `json:"tools"`
	}
	if err := json.Unmarshal(resps[1]["result"], &toolList); err != nil {
		t.Fatal(err)
	}
	if len(toolList.Tools) != 4 {
		t.Fatalf("tools/list returned %d tools", len(toolList.Tools))
	}
	if !strings.Contains(toolText(t, resps[2]), "fig10") {
		t.Fatal("list_experiments does not mention fig10")
	}

	var sub1, sub2 struct {
		Job    string `json:"job"`
		Digest string `json:"digest"`
		State  string `json:"state"`
		Cached bool   `json:"cached"`
	}
	if err := json.Unmarshal([]byte(toolText(t, resps[3])), &sub1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(toolText(t, resps[4])), &sub2); err != nil {
		t.Fatal(err)
	}
	if sub1.State != "done" || sub1.Cached {
		t.Fatalf("first submission: %+v", sub1)
	}
	if !sub2.Cached || sub2.Digest != sub1.Digest {
		t.Fatalf("second submission not a cache hit on the same digest: %+v vs %+v", sub2, sub1)
	}

	var rpcErr struct {
		Error struct {
			Code int `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal([]byte(lines[5]), &rpcErr); err != nil {
		t.Fatal(err)
	}
	if rpcErr.Error.Code != -32601 {
		t.Fatalf("unknown method code = %d, want -32601", rpcErr.Error.Code)
	}

	var sweepSub struct {
		Job    string `json:"job"`
		Digest string `json:"digest"`
	}
	if err := json.Unmarshal([]byte(toolText(t, resps[6])), &sweepSub); err != nil {
		t.Fatal(err)
	}

	// Second session over the same service: fetch the artifacts the first
	// session produced, then compare the sweep with itself at tolerance 0.
	input2 := strings.Join([]string{
		call(1, "fetch_result", fmt.Sprintf(`{"digest":%q}`, sub1.Digest)),
		call(2, "fetch_result", fmt.Sprintf(`{"job":%q}`, sweepSub.Job)),
		call(3, "compare_artifacts", fmt.Sprintf(`{"old":%q,"new":%q}`, sweepSub.Digest, sweepSub.Digest)),
		call(4, "fetch_result", `{}`),
	}, "\n") + "\n"
	out.Reset()
	if err := srv.Serve(context.Background(), strings.NewReader(input2), &out); err != nil {
		t.Fatalf("Serve = %v", err)
	}
	lines = strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d response lines, want 4:\n%s", len(lines), out.String())
	}
	resps = make([]map[string]json.RawMessage, len(lines))
	for i, line := range lines {
		if err := json.Unmarshal([]byte(line), &resps[i]); err != nil {
			t.Fatalf("response %d is not JSON: %q", i, line)
		}
	}
	ringBody := toolText(t, resps[0])
	if !strings.Contains(ringBody, `"experiment": "ring"`) {
		t.Fatalf("artifact fetched by digest is not the ring sweep: %.80q", ringBody)
	}
	sweepBody := toolText(t, resps[1])
	if !strings.Contains(sweepBody, `"sweep/v3"`) {
		t.Fatalf("sweep artifact fetched by job id does not look like sweep/v3: %.80q", sweepBody)
	}
	compareOut := toolText(t, resps[2])
	if !strings.Contains(compareOut, "no regressions") {
		t.Fatalf("self-comparison found regressions:\n%s", compareOut)
	}

	// A selector-less fetch is a tool error, not a crash or a protocol
	// error.
	var res struct {
		IsError bool `json:"isError"`
	}
	if err := json.Unmarshal(resps[3]["result"], &res); err != nil {
		t.Fatal(err)
	}
	if !res.IsError {
		t.Fatal("fetch_result without a selector did not report a tool error")
	}
}

// submit_campaign refuses what the HTTP endpoint refuses, as tool errors
// naming the problem: a kind other than sweep, and a field the request
// type does not have (the arguments decode with DisallowUnknownFields),
// retired stopping knobs included.
func TestSubmitCampaignRejects(t *testing.T) {
	svc, err := server.NewService(server.Config{Git: "mcp-test", CacheDir: t.TempDir(), Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain(context.Background())
	srv := New(svc, "mcp-test")

	cases := []struct{ args, mention string }{
		{`{"kind":"chaos"}`, `the only campaign kind is "sweep"`},
		{`{"kind":"trace","experiment":"fig10"}`, `the only campaign kind is "sweep"`},
		{`{"kind":"sweep","experiment":"fig10","plans":["burst-loss"]}`, `"plans"`},
		{`{"kind":"sweep","experiment":"fig10","series":"RAW LAPI"}`, `"series"`},
		{`{"kind":"sweep","experiment":"fig10","seed":2}`, `"seed"`},
		{`{"kind":"sweep","experiment":"fig10","seedsMax":8}`, `"seedsMax"`},
		{`{"kind":"sweep","experiment":"fig10","relCIPct":2}`, `"relCIPct"`},
		{`{"kind":"sweep","experiment":"fig10","faults":"@/etc"}`, `@file plans are read only by the command-line tools`},
	}
	var input []string
	for i, tc := range cases {
		input = append(input, call(i+1, "submit_campaign", tc.args))
	}
	var out bytes.Buffer
	if err := srv.Serve(context.Background(), strings.NewReader(strings.Join(input, "\n")+"\n"), &out); err != nil {
		t.Fatalf("Serve = %v", err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != len(cases) {
		t.Fatalf("got %d response lines, want %d:\n%s", len(lines), len(cases), out.String())
	}
	for i, tc := range cases {
		var resp struct {
			Result struct {
				Content []struct {
					Text string `json:"text"`
				} `json:"content"`
				IsError bool `json:"isError"`
			} `json:"result"`
		}
		if err := json.Unmarshal([]byte(lines[i]), &resp); err != nil {
			t.Fatalf("response %d is not JSON: %q", i, lines[i])
		}
		if !resp.Result.IsError || len(resp.Result.Content) != 1 {
			t.Errorf("%s: not a tool error: %s", tc.args, lines[i])
			continue
		}
		if msg := resp.Result.Content[0].Text; !strings.Contains(msg, tc.mention) {
			t.Errorf("%s: error %q does not mention %s", tc.args, msg, tc.mention)
		}
	}
}
