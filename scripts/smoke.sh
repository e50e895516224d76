#!/bin/sh
# End-to-end smoke test for the serving binary: boot riskserver, price
# one request and one 20-problem book, fail one request in the kernel
# (a 400, booked once: one farm.task.fail naming its rank, the fleet's
# failed count, farm_task_errors and no retry counter), assert the
# health, metrics and trace endpoints all respond with the right shape,
# then SIGTERM it and
# require a clean drain — the standing farm session's stop messages
# delivered, no rank stranded. The pricing and the drain run once on the
# default transport and once over unix sockets, and the full-revaluation
# reports — sweeps by reference on the first, their cells over a real
# socket on the second — must print the same digits on both. A third boot
# at -workers 1 gives its one worker every core, so a message of the
# mixed book's PDE, Monte Carlo and closed-form sweeps is priced side by
# side; its reports must print those digits too. Before the
# server, examples/mpidemo must pass each of its checks and `pricer -load`
# of a saved problem must print the price pricing it directly does. CI
# runs this after `make check`.
set -eu

GO=${GO:-go}
ADDR=${SMOKE_ADDR:-127.0.0.1:18080}
tmp=$(mktemp -d)
pid=
cleanup() {
	[ -n "$pid" ] && kill "$pid" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT

$GO build -o "$tmp/riskserver" ./cmd/riskserver
$GO build -o "$tmp/pricer" ./cmd/pricer

# The MPI demo walks the paper's Figs. 1–2 and §3.2: every step it checks
# must print "= true".
$GO run ./examples/mpidemo >"$tmp/mpidemo"
n=$(grep -c '= true$' "$tmp/mpidemo" || true)
[ "$n" -eq 4 ] || { echo "smoke: examples/mpidemo printed $n of its 4 '= true' lines" >&2; cat "$tmp/mpidemo" >&2; exit 1; }

# A problem saved to an nsp save file and loaded back prices as it does
# directly ($bs is a flag list, split unquoted).
bs='-model BlackScholes1dim -option CallEuro -method CF_Call -p S0=100 -p r=0.05 -p sigma=0.2 -p K=100 -p T=1'
"$tmp/pricer" $bs >"$tmp/pricer.direct"
"$tmp/pricer" $bs -save "$tmp/fic" >/dev/null
"$tmp/pricer" -load "$tmp/fic" >"$tmp/pricer.loaded"
direct=$(grep '^price:' "$tmp/pricer.direct" || true)
loaded=$(grep '^price:' "$tmp/pricer.loaded" || true)
[ -n "$direct" ] && [ "$direct" = "$loaded" ] || {
	echo "smoke: pricer -load of a saved problem priced \"$loaded\", directly \"$direct\"" >&2; exit 1
}

# boot starts riskserver with the given extra flags and waits for /healthz.
boot() {
	"$tmp/riskserver" -addr "$ADDR" -workers 2 -batch 4 -pprof "$@" 2>"$tmp/stderr" &
	pid=$!
	ok=
	for _ in $(seq 1 50); do
		if curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1; then
			ok=1
			break
		fi
		sleep 0.2
	done
	[ -n "$ok" ] || { echo "smoke: riskserver $* did not come up on $ADDR" >&2; cat "$tmp/stderr" >&2; exit 1; }
}

# price sends one /price, one that fails in the kernel, one 20-problem
# /batch and two full-revaluation /risk/reports on a fixed seed — the toy
# book, and an inline book of PDE, Monte Carlo and closed-form claims —
# whose var and base_value it leaves in the file named by $1: five farm
# rounds over the session. Bodies are captured before grepping: grep -q would close
# the pipe early and make curl report a spurious write error.
price() {
	curl -fsS "http://$ADDR/price" -d '{"model":"BlackScholes1dim","option":"CallEuro","method":"CF_Call","params":{"S0":100,"r":0.05,"sigma":0.2,"K":100,"T":1}}' >"$tmp/price"
	grep -q '"price"' "$tmp/price" || { echo "smoke: /price gave no price" >&2; exit 1; }
	# A call without its strike passes validation and fails in the kernel,
	# on a worker rank: a 400 naming the missing parameter, booked once.
	code=$(curl -s -o "$tmp/nostrike" -w '%{http_code}' "http://$ADDR/price" -d '{"model":"BlackScholes1dim","option":"CallEuro","method":"CF_Call","params":{"S0":100,"r":0.05,"sigma":0.2,"T":1}}')
	[ "$code" = "400" ] && grep -q 'missing parameter' "$tmp/nostrike" || {
		echo "smoke: a /price without K answered $code, want 400 naming the missing parameter" >&2; cat "$tmp/nostrike" >&2; exit 1
	}
	book='{"problems":['
	for k in $(seq 81 100); do
		[ "$k" = 81 ] || book="$book,"
		book="$book{\"model\":\"BlackScholes1dim\",\"option\":\"CallEuro\",\"method\":\"CF_Call\",\"params\":{\"S0\":100,\"r\":0.05,\"sigma\":0.2,\"K\":$k,\"T\":1}}"
	done
	curl -fsS "http://$ADDR/batch" -d "$book]}" >"$tmp/batch"
	n=$(grep -o '"price"' "$tmp/batch" | wc -l)
	[ "$n" -eq 20 ] || { echo "smoke: a 20-problem /batch gave $n prices" >&2; exit 1; }
	curl -fsS "http://$ADDR/risk/report" -d '{"portfolio":{"name":"toy","n":8},"scenarios":{"mode":"mc","n":64,"seed":5},"alphas":[0.99],"method":"full"}' >"$tmp/riskreport"
	grep -q '"cvar"' "$tmp/riskreport" || { echo "smoke: /risk/report gave no VaR/CVaR estimates" >&2; exit 1; }
	grep -oE '"(var|base_value)":[^,}]*' "$tmp/riskreport" >"$1"
	[ "$(wc -l <"$1")" -eq 2 ] || { echo "smoke: /risk/report gave no var and base_value to compare" >&2; cat "$tmp/riskreport" >&2; exit 1; }
	mixed='{"model":"BlackScholes1dim","option":"CallDownOut","method":"FD_CrankNicolson","params":{"S0":100,"r":0.045,"divid":0.01,"sigma":0.22,"K":100,"T":1,"L":75,"steps":90,"nodes":200}},
{"model":"BlackScholes1dim","option":"PutAmer","method":"FD_BrennanSchwartz","params":{"S0":100,"r":0.045,"divid":0.01,"sigma":0.22,"K":100,"T":1,"steps":90,"nodes":200}},
{"model":"BlackScholesNdim","option":"PutBasketEuro","method":"MC_Basket","params":{"S0":100,"r":0.045,"divid":0.01,"sigma":0.22,"dim":5,"rho":0.3,"K":100,"T":1,"paths":20000}},
{"model":"BlackScholesNdim","option":"PutBasketAmer","method":"MC_AM_LongstaffSchwartz","params":{"S0":100,"r":0.045,"divid":0.01,"sigma":0.22,"dim":3,"rho":0.3,"K":100,"T":1,"paths":4000,"exdates":10}},
{"model":"BlackScholes1dim","option":"CallEuro","method":"CF_Call","params":{"S0":100,"r":0.045,"sigma":0.22,"K":95,"T":1}}'
	curl -fsS "http://$ADDR/risk/report" -d "{\"portfolio\":{\"problems\":[$mixed]},\"scenarios\":{\"mode\":\"mc\",\"n\":4,\"seed\":5},\"alphas\":[0.99],\"method\":\"full\"}" >"$tmp/mixedreport"
	grep -oE '"(var|base_value)":[^,}]*' "$tmp/mixedreport" >>"$1"
	[ "$(wc -l <"$1")" -eq 4 ] || { echo "smoke: the mixed book's /risk/report gave no var and base_value to compare" >&2; cat "$tmp/mixedreport" >&2; exit 1; }
}

# drain SIGTERMs the server and requires "drained, bye" and exit status
# 0 within 5 s.
drain() {
	kill -TERM "$pid"
	for _ in $(seq 1 50); do
		kill -0 "$pid" 2>/dev/null || break
		sleep 0.1
	done
	if kill -0 "$pid" 2>/dev/null; then
		echo "smoke: riskserver $* still running 5 s after SIGTERM" >&2; cat "$tmp/stderr" >&2; exit 1
	fi
	status=0
	wait "$pid" || status=$?
	pid=
	[ "$status" -eq 0 ] || { echo "smoke: riskserver $* exited $status after SIGTERM" >&2; cat "$tmp/stderr" >&2; exit 1; }
	grep -q 'drained, bye' "$tmp/stderr" || { echo "smoke: riskserver $* did not report a clean drain" >&2; cat "$tmp/stderr" >&2; exit 1; }
}

boot
price "$tmp/report.local"
curl -fsS "http://$ADDR/risk" >"$tmp/risk"
grep -q '/risk/report' "$tmp/risk" || { echo "smoke: /risk does not describe the risk endpoints" >&2; exit 1; }
curl -fsS "http://$ADDR/metrics" >"$tmp/metrics"
grep -q '# TYPE ' "$tmp/metrics" || { echo "smoke: /metrics is not Prometheus text" >&2; exit 1; }
grep -q '^telemetry_trace_spans_dropped 0$' "$tmp/metrics" || { echo "smoke: a traced report lost spans (telemetry_trace_spans_dropped is not 0)" >&2; exit 1; }
grep -q '^farm_task_errors ' "$tmp/metrics" || { echo "smoke: /metrics does not count the failed task (farm_task_errors)" >&2; exit 1; }
if grep -q 'farm_retries' "$tmp/metrics"; then echo "smoke: /metrics still has farm_retries" >&2; exit 1; fi
curl -fsS "http://$ADDR/metrics.json" >"$tmp/metrics.json"
grep -q '"counters"' "$tmp/metrics.json" || { echo "smoke: /metrics.json is not a JSON snapshot" >&2; exit 1; }
curl -fsS "http://$ADDR/debug/traces" >"$tmp/traces"
grep -q 'serve.request' "$tmp/traces" || { echo "smoke: /debug/traces shows no serve.request trace" >&2; exit 1; }
curl -fsS "http://$ADDR/debug/events?level=warn&n=32" >"$tmp/events" || { echo "smoke: /debug/events not mounted" >&2; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/debug/events?level=bogus")
[ "$code" = "400" ] || { echo "smoke: /debug/events accepted a bad level filter (got $code)" >&2; exit 1; }
curl -fsS "http://$ADDR/debug/events?level=error&prefix=farm.task.fail" >"$tmp/fails"
grep -q '"rank"' "$tmp/fails" || { echo "smoke: the failed task left no farm.task.fail event naming its rank" >&2; cat "$tmp/fails" >&2; exit 1; }
curl -fsS "http://$ADDR/debug/slo" >"$tmp/slo"
grep -q '"objectives"' "$tmp/slo" || { echo "smoke: /debug/slo gave no objectives" >&2; exit 1; }
grep -q 'price_latency' "$tmp/slo" || { echo "smoke: /debug/slo is missing the default latency objective" >&2; exit 1; }
curl -fsS "http://$ADDR/debug/farm" >"$tmp/farm"
grep -q '"workers"' "$tmp/farm" || { echo "smoke: /debug/farm gave no workers array" >&2; exit 1; }
grep -q '"rank"' "$tmp/farm" || { echo "smoke: /debug/farm shows no worker rows after pricing" >&2; exit 1; }
grep -q '"idle_workers": 2' "$tmp/farm" || { echo "smoke: /debug/farm does not show the session's two workers waiting for work" >&2; exit 1; }
grep -q '"failed"' "$tmp/farm" || { echo "smoke: /debug/farm rows carry no failed count" >&2; exit 1; }
if grep -qE '"(retried|redealt)"' "$tmp/farm"; then echo "smoke: /debug/farm rows still carry retried or redealt" >&2; exit 1; fi
curl -fsS "http://$ADDR/debug/pprof/cmdline" >/dev/null || { echo "smoke: /debug/pprof not mounted" >&2; exit 1; }
curl -fsS "http://$ADDR/healthz" >/dev/null
drain

boot -transport unix
price "$tmp/report.unix"
drain -transport unix
cmp -s "$tmp/report.local" "$tmp/report.unix" || {
	echo "smoke: the full-revaluation reports differ between the local and unix transports:" >&2
	cat "$tmp/report.local" "$tmp/report.unix" >&2; exit 1
}

# One worker owning every core: a message of several sweeps is priced
# side by side (at -batch 16 a mixed-book message holds all five claims).
boot -workers 1 -batch 16
price "$tmp/report.wide"
drain -workers 1 -batch 16
cmp -s "$tmp/report.local" "$tmp/report.wide" || {
	echo "smoke: the full-revaluation reports differ between -workers 2 and -workers 1:" >&2
	cat "$tmp/report.local" "$tmp/report.wide" >&2; exit 1
}

echo "smoke: examples/mpidemo and pricer -save/-load OK; /price (a kernel failure a 400, booked once), /batch, /risk, /risk/report, /metrics, /metrics.json, /debug/traces, /debug/events, /debug/slo, /debug/farm, /debug/pprof, /healthz all OK; clean SIGTERM drain and the same full-revaluation digits on the local and unix transports and at -workers 1"
