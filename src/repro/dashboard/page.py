"""The dashboard's single static page: inline HTML + JS, no build step.

The page is a template string rendered once per request — no bundler, no
framework, no external assets (it must work on an air-gapped lab box).
All data arrives from the JSON endpoints; all figures are drawn as
inline SVG by the small renderer below. ``EventSource('/events')``
re-fetches the cached figure catalog whenever the server pushes an
``update``, so an open tab tracks a running campaign with no reload.
"""

_PAGE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>repro-timing · __CAMPAIGN__</title>
<style>
  body { font: 14px/1.4 system-ui, sans-serif; margin: 1.5rem;
         background: #111; color: #ddd; }
  h1 { font-size: 1.3rem; } h2 { font-size: 1.05rem; margin-top: 1.6rem; }
  #state { color: #8c8; } .stale { color: #c88 !important; }
  svg { background: #181818; border: 1px solid #333; margin: .3rem 0; }
  .bar { fill: #4a90d9; } .bar.base { fill: #666; }
  .ci { stroke: #e6b450; stroke-width: 1.5; }
  .axis { stroke: #444; } text { fill: #aaa; font-size: 10px; }
  .spark { fill: none; stroke: #4a90d9; stroke-width: 1; }
  .env { fill: #4a90d933; stroke: none; }
  .target { stroke: #c66; stroke-dasharray: 4 3; }
  .conv { fill: none; stroke: #8c8; stroke-width: 1.2; }
  table { border-collapse: collapse; }
  td, th { border: 1px solid #333; padding: .2rem .5rem; text-align: left; }
  a { color: #4a90d9; }
  code { background: #222; padding: 0 .25rem; }
</style>
</head>
<body>
<h1>campaign <code>__CAMPAIGN__</code>
    <span id="state">connecting…</span></h1>
<div id="summary"></div>
<h2>CI half-width convergence</h2><div id="convergence"></div>
<h2>paired cycle overhead</h2><div id="overhead"></div>
<h2>fault / replay rates</h2><div id="rates"></div>
<h2>interval telemetry</h2><div id="telemetry"></div>
<h2>fleet</h2><div id="fleet"></div>
<script>
"use strict";
const $ = (id) => document.getElementById(id);
const esc = (s) => String(s).replace(/[&<>"]/g,
  (c) => ({"&":"&amp;","<":"&lt;",">":"&gt;",'"':"&quot;"}[c]));

function svgOpen(w, h) {
  return `<svg width="${w}" height="${h}" viewBox="0 0 ${w} ${h}">`;
}

function barFigure(bars, key, fmt) {
  if (!bars.length) return "<p>no data yet</p>";
  const w = Math.max(320, bars.length * 64 + 60), h = 180, pad = 40;
  const vals = bars.map((b) => key(b).mean ?? key(b));
  const tops = bars.map((b, i) => {
    const k = key(b);
    return (k.mean ?? k) + (k.halfwidth || 0);
  });
  const max = Math.max(1e-9, ...tops.map(Math.abs));
  const y = (v) => h - pad - (Math.abs(v) / max) * (h - 2 * pad);
  let out = svgOpen(w, h);
  out += `<line class="axis" x1="${pad}" y1="${h - pad}"` +
         ` x2="${w - 10}" y2="${h - pad}"/>`;
  bars.forEach((b, i) => {
    const k = key(b), v = k.mean ?? k, x = pad + 8 + i * 60;
    out += `<rect class="bar" x="${x}" width="34" y="${y(v)}"` +
           ` height="${h - pad - y(v)}"><title>${esc(b.point)}: ` +
           `${fmt(v)}</title></rect>`;
    if (k.halfwidth != null) {
      out += `<line class="ci" x1="${x + 17}" x2="${x + 17}"` +
             ` y1="${y(v - k.halfwidth)}" y2="${y(v + k.halfwidth)}"/>`;
    }
    out += `<text x="${x}" y="${h - pad + 12}"` +
           ` transform="rotate(30 ${x} ${h - pad + 12})">` +
           `${esc(b.benchmark)}/${esc(b.scheme)}</text>`;
  });
  return out + "</svg>";
}

function convFigure(p) {
  const metrics = Object.keys(p.halfwidths).sort();
  const n = p.n, w = 260, h = 120, pad = 24;
  let vals = [];
  metrics.forEach((m) => p.halfwidths[m].forEach(
    (v) => { if (v != null) vals.push(v); }));
  Object.values(p.targets).forEach((t) => vals.push(t));
  if (!vals.length) return "";
  const max = Math.max(...vals) * 1.1;
  const x = (i) => pad + (n < 2 ? 0 : (i / (n - 1)) * (w - pad - 8));
  const y = (v) => h - pad - (v / max) * (h - 2 * pad);
  let out = `<div><b>${esc(p.point)}</b> (n=${n})<br>` + svgOpen(w, h);
  metrics.forEach((m) => {
    const pts = p.halfwidths[m]
      .map((v, i) => v == null ? null : `${x(i)},${y(v)}`)
      .filter(Boolean).join(" ");
    if (pts) out += `<polyline class="conv" points="${pts}">` +
                    `<title>${esc(m)}</title></polyline>`;
    const t = p.targets[m];
    if (t != null && t <= max)
      out += `<line class="target" x1="${pad}" x2="${w - 8}"` +
             ` y1="${y(t)}" y2="${y(t)}"/>`;
  });
  return out + `<line class="axis" x1="${pad}" y1="${h - pad}"` +
         ` x2="${w - 8}" y2="${h - pad}"/></svg></div>`;
}

function sparkline(entry) {
  const w = 200, h = 36;
  return `<span title="mean ${entry.mean.toFixed(4)} ` +
    `[${entry.min.toFixed(4)}..${entry.max.toFixed(4)}]">` +
    svgOpen(w, h) +
    `<rect class="env" x="0" y="8" width="${w}" height="${h - 16}"/>` +
    `<line class="spark" x1="0" x2="${w}" y1="${h / 2}" y2="${h / 2}"/>` +
    `</svg></span>`;
}

function render(f) {
  $("convergence").innerHTML =
    f.convergence.points.map(convFigure).join("") || "<p>no draws yet</p>";
  $("overhead").innerHTML = barFigure(
    f.overhead.bars,
    (b) => ({mean: b.mean, halfwidth: b.halfwidth}),
    (v) => (v * 100).toFixed(2) + "%");
  $("rates").innerHTML =
    "<h3>fault rate</h3>" +
    barFigure(f.rates.bars, (b) => b.fault_rate, (v) => v.toFixed(4)) +
    "<h3>replay rate</h3>" +
    barFigure(f.rates.bars, (b) => b.replay_rate, (v) => v.toFixed(4));
  $("telemetry").innerHTML = f.telemetry.points.length
    ? "<table><tr><th>point</th><th>windows</th><th>ipc</th>" +
      "<th>fault_rate</th><th>replay_rate</th></tr>" +
      f.telemetry.points.map((p) => {
        const t = p.pooled;
        const cell = (m) => t[m]
          ? sparkline(t[m]) + ` ${t[m].mean.toFixed(4)}` : "—";
        return `<tr><td><a href="/api/point/${p.point}">` +
          `${esc(p.point)}</a></td><td>${t.windows.toFixed(1)}</td>` +
          `<td>${cell("ipc")}</td><td>${cell("fault_rate")}</td>` +
          `<td>${cell("replay_rate")}</td></tr>`;
      }).join("") + "</table>"
    : "<p>campaign ran without --telemetry-interval</p>";
  const fl = f.fleet;
  const audit = fl.audit
    ? Object.entries(fl.audit).map(([k, v]) => `${esc(k)}=${v}`).join(" ")
    : "no audit records";
  $("fleet").innerHTML =
    `<p>leases: ${fl.leases_granted} granted, ` +
    `${fl.leases_completed} completed, ${fl.leases_revoked} revoked; ` +
    `steals: ${fl.steals.length}; scale events: ` +
    `${fl.scale_events.length}</p><p>audit: ${audit}</p>` +
    (Object.keys(fl.workers).length
      ? "<table><tr><th>worker</th><th>draws</th><th>granted</th>" +
        "<th>completed</th><th>revoked</th><th>stolen from</th></tr>" +
        Object.entries(fl.workers).map(([name, i]) =>
          `<tr><td>${esc(name)}</td><td>${i.draws}</td>` +
          `<td>${i.granted}</td><td>${i.completed}</td>` +
          `<td>${i.revoked}</td><td>${i.stolen_from}</td></tr>`
        ).join("") + "</table>"
      : "<p>single-pool campaign (no lease ledger)</p>");
}

async function refresh() {
  const f = await (await fetch("/api/figures")).json();
  render(f);
  return f;
}

function summary(s) {
  $("summary").innerHTML =
    `<p>${s.points_done} points done, ${s.runs_total} draws journaled, ` +
    `complete=${s.complete} (state version ${s.version})</p>`;
}

refresh().then((f) => summary({...f.fleet, version: f.version,
  complete: false, points_done: "?", runs_total: "?"})).catch(() => {});
const es = new EventSource("/events");
es.onopen = () => { $("state").textContent = "live"; };
es.onerror = () => {
  $("state").textContent = "disconnected";
  $("state").classList.add("stale");
};
es.addEventListener("snapshot", (e) => {
  summary(JSON.parse(e.data)); refresh();
});
es.addEventListener("update", (e) => {
  summary(JSON.parse(e.data)); refresh();
});
</script>
</body>
</html>
"""


def render_page(campaign_name):
    """The dashboard page with the campaign name substituted in."""
    safe = (
        str(campaign_name)
        .replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )
    return _PAGE.replace("__CAMPAIGN__", safe)
