#!/usr/bin/env bash
# e2e_server.sh — end-to-end smoke of the xpfilterd daemon: build it
# (race-instrumented by default), boot it on an ephemeral port, exercise
# subscription CRUD plus buffered and chunked ingest over real HTTP,
# drive webhook delivery through a fault-injecting receiver (forcing a
# retry), assert fragment extraction end to end (the /match response's
# fragments object AND the webhook body carry the matched subtree
# itself, as its bytes appear in the document, and a chunked body gets
# the buffered one's fragments), scrape /metrics, drive a short xpload
# run, then SIGTERM it and assert a clean graceful-drain exit.
#
# Usage:
#   scripts/e2e_server.sh            # race build, 16-client load smoke
#   E2E_RACE=0 scripts/e2e_server.sh # plain build (faster)
#   E2E_CLIENTS=64 E2E_REQUESTS=5000 scripts/e2e_server.sh
set -euo pipefail
cd "$(dirname "$0")/.."

race_flag="-race"
[ "${E2E_RACE:-1}" = "0" ] && race_flag=""
clients="${E2E_CLIENTS:-16}"
requests="${E2E_REQUESTS:-400}"

work="$(mktemp -d)"
daemon_pid=""
sink_pid=""
cleanup() {
  [ -n "$daemon_pid" ] && kill -9 "$daemon_pid" 2>/dev/null || true
  [ -n "$sink_pid" ] && kill -9 "$sink_pid" 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT

echo "== build"
go build $race_flag -o "$work/xpfilterd" ./cmd/xpfilterd
go build -o "$work/xpload" ./cmd/xpload

echo "== version flags"
"$work/xpfilterd" -version | grep -q '^xpfilterd '
"$work/xpload" -version | grep -q '^xpload '

echo "== boot on an ephemeral port"
"$work/xpfilterd" -addr 127.0.0.1:0 -addr-file "$work/addr" \
  -delivery-backoff 10ms -delivery-backoff-max 50ms \
  >"$work/daemon.log" 2>&1 &
daemon_pid=$!
for _ in $(seq 1 100); do
  [ -s "$work/addr" ] && break
  sleep 0.1
done
[ -s "$work/addr" ] || { echo "daemon never wrote addr-file"; cat "$work/daemon.log"; exit 1; }
addr="$(cat "$work/addr")"
base="http://$addr"
echo "   $base"

fail() { echo "FAIL: $*"; cat "$work/daemon.log"; exit 1; }

echo "== healthz"
curl -fsS "$base/healthz" | grep -q '"ok"' || fail "healthz"

echo "== subscription CRUD"
code=$(curl -s -o "$work/out" -w '%{http_code}' -X PUT "$base/v1/tenants/e2e/subscriptions/items" -d '/news/item')
[ "$code" = 201 ] || fail "PUT subscription: $code $(cat "$work/out")"
code=$(curl -s -o "$work/out" -w '%{http_code}' -X PUT "$base/v1/tenants/e2e/subscriptions/deep" -d '//item[keyword]')
[ "$code" = 201 ] || fail "PUT second subscription: $code"
curl -fsS "$base/v1/tenants/e2e/subscriptions" | grep -q '"items"' || fail "list subscriptions"
code=$(curl -s -o "$work/out" -w '%{http_code}' -X PUT "$base/v1/tenants/e2e/subscriptions/bad" -d '/news[')
[ "$code" = 400 ] || fail "invalid query not rejected: $code"
grep -q 'invalid_query' "$work/out" || fail "invalid query lacks typed code"

echo "== buffered ingest"
doc='<news><item><title>t</title><keyword>go</keyword></item></news>'
curl -fsS -X POST "$base/v1/tenants/e2e/match" -d "$doc" >"$work/verdict" || fail "buffered match"
grep -q '"items"' "$work/verdict" || fail "buffered verdict missing items: $(cat "$work/verdict")"
grep -q '"deep"' "$work/verdict" || fail "buffered verdict missing deep"

echo "== chunked ingest"
printf '%s' "$doc" | curl -fsS -X POST -H 'Transfer-Encoding: chunked' \
  --data-binary @- "$base/v1/tenants/e2e/match" >"$work/verdict2" || fail "chunked match"
grep -q '"items"' "$work/verdict2" || fail "chunked verdict: $(cat "$work/verdict2")"

echo "== delete subscription"
code=$(curl -s -o /dev/null -w '%{http_code}' -X DELETE "$base/v1/tenants/e2e/subscriptions/deep")
[ "$code" = 200 ] || fail "DELETE subscription: $code"

echo "== metrics"
curl -fsS "$base/metrics" >"$work/metrics"
grep -q 'xpfilterd_documents_total{tenant="e2e"} 2' "$work/metrics" || fail "documents_total"
grep -q 'xpfilterd_subscriptions{tenant="e2e"} 1' "$work/metrics" || fail "subscriptions gauge"
grep -q 'xpfilterd_http_requests_total' "$work/metrics" || fail "http_requests_total"

echo "== webhook delivery through a flaky receiver"
"$work/xpload" -sink -addr 127.0.0.1:0 -addr-file "$work/sink.addr" -sink-fail-first 1 \
  >"$work/sink.out" 2>"$work/sink.log" &
sink_pid=$!
for _ in $(seq 1 100); do
  [ -s "$work/sink.addr" ] && break
  sleep 0.1
done
[ -s "$work/sink.addr" ] || { echo "sink never wrote addr-file"; cat "$work/sink.log"; exit 1; }
sink_addr="$(cat "$work/sink.addr")"
code=$(curl -s -o "$work/out" -w '%{http_code}' -X PUT "$base/v1/tenants/e2e/subscriptions/hooked" \
  -d "{\"query\": \"/news/item\", \"webhook\": {\"url\": \"http://$sink_addr/hook\"}}")
[ "$code" = 201 ] || fail "PUT webhook subscription: $code $(cat "$work/out")"
curl -fsS -X POST "$base/v1/tenants/e2e/match" -d "$doc" >/dev/null || fail "webhook match"
# The sink 500s the first attempt, so success proves a retry happened.
delivered=""
for _ in $(seq 1 100); do
  delivered="$(curl -fsS "http://$sink_addr/stats" | grep -o '"delivered":[0-9]*' | cut -d: -f2)"
  [ "$delivered" = 1 ] && break
  sleep 0.1
done
[ "$delivered" = 1 ] || fail "webhook never delivered after retry: $(curl -fsS "http://$sink_addr/stats")"
curl -fsS "$base/metrics" >"$work/metrics2"
attempts="$(grep 'xpfilterd_delivery_attempts_total{tenant="e2e"}' "$work/metrics2" | awk '{print $2}')"
[ -n "$attempts" ] && [ "$attempts" -ge 2 ] || fail "delivery_attempts_total=$attempts, want >= 2"
grep -q 'xpfilterd_delivery_successes_total{tenant="e2e"} 1' "$work/metrics2" || fail "delivery_successes_total"
grep -q 'xpfilterd_delivery_retries_total{tenant="e2e"} 1' "$work/metrics2" || fail "delivery_retries_total"
curl -fsS "$base/v1/tenants/e2e/deadletters" | grep -q '"deadletters":\[\]' || fail "dead-letter ring not empty"
curl -s -o /dev/null -X DELETE "$base/v1/tenants/e2e/subscriptions/hooked"

echo "== fragment extraction: response fragments and webhook subtree body"
code=$(curl -s -o "$work/out" -w '%{http_code}' -X PUT "$base/v1/tenants/e2e/subscriptions/router" \
  -d "{\"query\": \"//item[keyword]\", \"extract\": true, \"webhook\": {\"url\": \"http://$sink_addr/hook\"}}")
[ "$code" = 201 ] || fail "PUT extraction subscription: $code $(cat "$work/out")"
# An empty-element tag: the fragment is the document's bytes, as written.
xdoc='<news><item><title>t</title><keyword>go</keyword><br/></item></news>'
want_frag='<item><title>t</title><keyword>go</keyword><br/></item>'
curl -fsS -X POST "$base/v1/tenants/e2e/match" -d "$xdoc" >"$work/verdict3" || fail "extraction match"
grep -qF "\"router\":\"${want_frag//\"/\\\"}\"" "$work/verdict3" \
  || fail "match response lacks extracted fragment: $(cat "$work/verdict3")"
# The webhook body must be the matched subtree itself (not a JSON
# envelope), delivered as application/xml.
delivered2=""
for _ in $(seq 1 100); do
  delivered2="$(curl -fsS "http://$sink_addr/stats" | grep -o '"delivered":[0-9]*' | cut -d: -f2)"
  [ "$delivered2" = 2 ] && break
  sleep 0.1
done
[ "$delivered2" = 2 ] || fail "extraction webhook never delivered: $(curl -fsS "http://$sink_addr/stats")"
curl -fsS -D "$work/last.hdr" "http://$sink_addr/last" >"$work/last.body" || fail "sink /last"
[ "$(cat "$work/last.body")" = "$want_frag" ] \
  || fail "webhook body is not the matched subtree: $(cat "$work/last.body")"
grep -qi 'content-type: application/xml' "$work/last.hdr" || fail "webhook body not application/xml"
# A chunked body is read, not buffered; its fragments are the same bytes.
printf '%s' "$xdoc" | curl -fsS -X POST -H 'Transfer-Encoding: chunked' \
  --data-binary @- "$base/v1/tenants/e2e/match" >"$work/verdict4" || fail "chunked extraction match"
frags_buffered="$(grep -o '"fragments":{[^}]*}' "$work/verdict3")"
frags_chunked="$(grep -o '"fragments":{[^}]*}' "$work/verdict4")"
[ -n "$frags_buffered" ] && [ "$frags_chunked" = "$frags_buffered" ] \
  || fail "chunked fragments $frags_chunked, buffered $frags_buffered"
curl -s -o /dev/null -X DELETE "$base/v1/tenants/e2e/subscriptions/router"
kill -TERM "$sink_pid" 2>/dev/null || true
wait "$sink_pid" 2>/dev/null || true
sink_pid=""

echo "== load smoke ($clients clients, $requests requests)"
"$work/xpload" -addr "$addr" -clients "$clients" -requests "$requests" \
  || fail "xpload reported errors"

echo "== graceful drain on SIGTERM"
kill -TERM "$daemon_pid"
drain_rc=0
wait "$daemon_pid" || drain_rc=$?
daemon_pid=""
[ "$drain_rc" = 0 ] || fail "daemon exit code $drain_rc, want 0"
grep -q 'msg=drained' "$work/daemon.log" || fail "daemon never logged drained"

echo "OK: e2e server smoke passed"
