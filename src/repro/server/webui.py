"""Server-rendered web user interfaces (paper Fig. 3 and Section 5.4).

"We have designed a web-based user interface where the users can define
and manage privacy rules.  The user interface consists of standard HTML UI
components and Google Maps."  We render real HTML — forms with check
boxes, radio buttons, selects, text boxes — and a map placeholder div
where the Google Maps widget would mount.  Form submissions are translated
into the same Fig. 4 JSON rules the API accepts, so the web path and the
API path exercise one rule pipeline.

Web access uses username/password login, per Section 5.4: a login answers
the principal's API key (an owner's at a store, a consumer's at the
broker) as the page token, which a page ``POST``s in its body, never in
its path.  Each page is declared with the ``/api`` handler it renders and
answers through it.  Pages are served as ``{"Html": ...}`` bodies with a
``text/html`` content type through the simulated transport.
"""

from __future__ import annotations

import html as html_escape
from typing import Optional

from repro.datastore.wavesegment import WaveSegment
from repro.exceptions import AuthenticationError, BadRequestError
from repro.net.http import Request, Response, html_response
from repro.rules.engine import decode_release
from repro.rules.parser import rules_from_json
from repro.sensors.channels import CHANNEL_GROUPS
from repro.sensors.contexts import CONTEXT_NAMES, CONTEXTS
from repro.server.audit import AuditRecord
from repro.server.broker_service import BrokerService
from repro.server.datastore_service import DataStoreService
from repro.server.routes import mount, page, route
from repro.util.timeutil import WEEKDAY_NAMES, Interval


def _esc(text: object) -> str:
    return html_escape.escape(str(text))


def _page(title: str, body: str) -> str:
    return (
        "<!DOCTYPE html><html><head>"
        f"<title>{_esc(title)} - SensorSafe</title>"
        "</head><body>"
        f"<h1>{_esc(title)}</h1>{body}"
        "</body></html>"
    )


def _checkboxes(name: str, options, checked=()) -> str:
    parts = []
    for option in options:
        mark = " checked" if option in checked else ""
        parts.append(
            f'<label><input type="checkbox" name="{_esc(name)}" '
            f'value="{_esc(option)}"{mark}> {_esc(option)}</label>'
        )
    return "\n".join(parts)


def _select(name: str, options, selected: Optional[str] = None) -> str:
    rows = []
    for option in options:
        mark = " selected" if option == selected else ""
        rows.append(f'<option value="{_esc(option)}"{mark}>{_esc(option)}</option>')
    return f'<select name="{_esc(name)}">' + "".join(rows) + "</select>"


def render_rule_editor(contributor: str, rules, places) -> str:
    """The Fig. 3 page: existing rules plus the rule-creation form."""
    rule_rows = "".join(
        f"<tr><td><code>{_esc(r.rule_id)}</code></td>"
        f"<td>{_esc(r.describe())}</td>"
        f'<td><button name="remove" value="{_esc(r.rule_id)}">Remove</button></td></tr>'
        for r in rules
    )
    abstraction_selects = "".join(
        f"<li>{_esc(name)}: "
        + _select(f"abs_{name}", ("(unchanged)",) + spec.abstraction_levels)
        + "</li>"
        for name, spec in CONTEXTS.items()
    )
    body = f"""
<h2>Privacy rules for {_esc(contributor)}</h2>
<table border="1">
  <tr><th>Rule id</th><th>Summary</th><th></th></tr>
  {rule_rows or '<tr><td colspan="3">No rules defined; nothing is shared.</td></tr>'}
</table>
<h2>Create a privacy rule</h2>
<form method="post" action="/web/rules/submit">
  <fieldset><legend>Data consumer</legend>
    <input type="text" name="consumers" placeholder="user, group, or study names">
  </fieldset>
  <fieldset><legend>Location</legend>
    <div id="map" style="width:480px;height:320px;border:1px solid #888">
      [Google Maps region-selection widget]
    </div>
    {_checkboxes("location_labels", sorted(places))}
  </fieldset>
  <fieldset><legend>Time</legend>
    Days: {_checkboxes("days", WEEKDAY_NAMES)}<br>
    From <input type="text" name="time_from" placeholder="9:00am">
    to <input type="text" name="time_to" placeholder="6:00pm">
  </fieldset>
  <fieldset><legend>Sensor</legend>
    {_checkboxes("sensors", sorted(CHANNEL_GROUPS))}
  </fieldset>
  <fieldset><legend>Context</legend>
    {_checkboxes("contexts", CONTEXT_NAMES)}
  </fieldset>
  <fieldset><legend>Action</legend>
    <label><input type="radio" name="action" value="Allow" checked> Allow</label>
    <label><input type="radio" name="action" value="Deny"> Deny</label>
    <label><input type="radio" name="action" value="Abstraction"> Abstraction:</label>
    <ul>{abstraction_selects}</ul>
  </fieldset>
  <button type="submit">Save rule</button>
</form>
"""
    return _page("Privacy Rules", body)


def form_to_rule_json(form: dict) -> dict:
    """Translate the rule-editor form fields into Fig. 4 rule JSON."""
    obj: dict = {}
    consumers = [c.strip() for c in str(form.get("consumers", "")).split(",") if c.strip()]
    if consumers:
        obj["Consumer"] = consumers
    labels = list(form.get("location_labels", []))
    if labels:
        obj["LocationLabel"] = labels
    days = list(form.get("days", []))
    time_from = str(form.get("time_from", "")).strip()
    time_to = str(form.get("time_to", "")).strip()
    if days and time_from and time_to:
        obj["RepeatTime"] = {"Day": days, "HourMin": [time_from, time_to]}
    sensors = list(form.get("sensors", []))
    if sensors:
        obj["Sensor"] = sensors
    contexts = list(form.get("contexts", []))
    if contexts:
        obj["Context"] = contexts
    action = form.get("action", "Allow")
    if action == "Abstraction":
        levels = {
            key[4:]: value
            for key, value in form.items()
            if key.startswith("abs_") and value and value != "(unchanged)"
        }
        if not levels:
            raise BadRequestError("abstraction action needs at least one level")
        obj["Action"] = {"Abstraction": levels}
    elif action in ("Allow", "Deny"):
        obj["Action"] = action
    else:
        raise BadRequestError(f"unknown action selection: {action!r}")
    return obj


def render_data_view(contributor: str, segments) -> str:
    """The contributor's own-data review page ("Alice reviews her data")."""
    by_channel: dict = {}
    for segment in segments:
        for channel in segment.channels:
            entry = by_channel.setdefault(channel, {"segments": 0, "samples": 0})
            entry["segments"] += 1
            entry["samples"] += segment.n_samples
    rows = "".join(
        f"<tr><td>{_esc(ch)}</td><td>{info['segments']}</td><td>{info['samples']}</td></tr>"
        for ch, info in sorted(by_channel.items())
    )
    body = f"""
<h2>Data stored for {_esc(contributor)}</h2>
<table border="1">
  <tr><th>Channel</th><th>Wave segments</th><th>Samples</th></tr>
  {rows or '<tr><td colspan="3">No data uploaded yet.</td></tr>'}
</table>
"""
    return _page("My Data", body)


def render_search_page(matches=None) -> str:
    """The broker's contributor-search page."""
    result_rows = ""
    if matches is not None:
        result_rows = "<h2>Matches</h2><ul>" + "".join(
            f"<li>{_esc(m)}</li>" for m in matches
        ) + "</ul>" if matches else "<h2>Matches</h2><p>No contributors matched.</p>"
    body = f"""
<form method="post" action="/web/search">
  <fieldset><legend>Required sensors</legend>
    {_checkboxes("sensors", sorted(CHANNEL_GROUPS))}
  </fieldset>
  <fieldset><legend>Location label</legend>
    <input type="text" name="location_label" placeholder="work">
  </fieldset>
  <fieldset><legend>Time</legend>
    Days: {_checkboxes("days", WEEKDAY_NAMES)}
    From <input type="text" name="time_from"> to <input type="text" name="time_to">
  </fieldset>
  <button type="submit">Search contributors</button>
</form>
{result_rows}
"""
    return _page("Contributor Search", body)


def render_audit_view(contributor: str, records, summary) -> str:
    """The access-audit page: who took what from this store."""
    summary_rows = "".join(
        f"<tr><td>{_esc(principal)}</td><td>{info['accesses']}</td>"
        f"<td>{info['samples']}</td><td>{info['raw']}</td></tr>"
        for principal, info in sorted(summary.items())
    )
    detail_rows = "".join(
        f"<tr><td>{r.seq}</td><td>{_esc(r.principal)}</td>"
        f"<td>{r.pieces_released}</td><td>{r.samples_released}</td>"
        f"<td>{_esc(', '.join(r.labels_released) or '-')}</td>"
        f"<td>{_esc('; '.join(sorted(r.withheld)) or '-')}</td></tr>"
        for r in records
    )
    body = f"""
<h2>Access summary for {_esc(contributor)}</h2>
<table border="1">
  <tr><th>Consumer</th><th>Accesses</th><th>Samples taken</th><th>Raw reads</th></tr>
  {summary_rows or '<tr><td colspan="4">No accesses recorded.</td></tr>'}
</table>
<h2>Recent accesses</h2>
<table border="1">
  <tr><th>#</th><th>Principal</th><th>Pieces</th><th>Samples</th>
      <th>Labels released</th><th>Channels withheld</th></tr>
  {detail_rows or '<tr><td colspan="6">No accesses recorded.</td></tr>'}
</table>
"""
    return _page("Access Audit", body)


class _WebUI:
    """Pages mounted on a service's router, each answering through the
    declared handler it renders (:func:`~repro.server.routes.page`).

    ``POST /web/login`` checks the principal's password and answers its API
    key as the page ``Token``.  A page sends that token to its handler as
    the key, so it is admitted in the handler's class and passes the same
    ``caller``/``writes`` preludes as the API; no page reads the service's
    state for itself.
    """

    def __init__(self, service) -> None:
        self.service = service
        mount(self, service.router, service.admission.classes)

    @route("POST", "/web/login", caller="open", admission="control")
    def _h_login(self, request: Request) -> dict:
        username = str(request.body.get("Username", ""))
        self.service.check_password(username, str(request.body.get("Password", "")))
        keys = self.service.keys
        return {"Token": keys.key_of(username) or keys.issue(username)}

    def _call(self, handler, request: Request, **body) -> dict:
        """The declared ``handler``'s reply, with the page's ``Token`` as the key."""
        token = request.body.get("Token")
        api = Request("POST", self.service.host, handler.route.path, {**body, "ApiKey": token})
        return handler(self.service, api)


class DataStoreWebUI(_WebUI):
    """The owner's pages on a remote data store: her rules, data and trail."""

    def _call(self, handler, request: Request, **body) -> tuple:
        """``(owner, reply)``: the handler, asked for the token's owner."""
        token = request.body.get("Token")
        try:
            owner = self.service.keys.authenticate(None if token is None else str(token))
        except AuthenticationError:
            owner = ""  # the handler's own prelude answers the 401
        return owner, super()._call(handler, request, Contributor=owner, **body)

    @page("/web/rules", DataStoreService._h_rules_download)
    def _h_rules_page(self, request: Request) -> Response:
        contributor, reply = self._call(DataStoreService._h_rules_download, request)
        rules = rules_from_json(reply["Rules"])
        places = [obj["Label"] for obj in reply["Places"]]
        return html_response(render_rule_editor(contributor, rules, places))

    @page("/web/rules/submit", DataStoreService._h_rules_add)
    def _h_rules_submit(self, request: Request) -> dict:
        rule_json = form_to_rule_json(dict(request.body.get("Form", {})))
        _, reply = self._call(DataStoreService._h_rules_add, request, Rule=rule_json)
        return {"RuleId": reply["RuleId"], "Rule": rule_json}

    @page("/web/data", DataStoreService._h_query)
    def _h_data_page(self, request: Request) -> Response:
        """The owner's raw read, audited like any other."""
        contributor, reply = self._call(DataStoreService._h_query, request)
        segments = [WaveSegment.from_json(obj) for obj in reply["Segments"]]
        return html_response(render_data_view(contributor, segments))

    @page("/web/audit", DataStoreService._h_audit_list)
    def _h_audit_page(self, request: Request) -> Response:
        contributor, trail = self._call(DataStoreService._h_audit_list, request, Limit=50)
        _, summary = self._call(DataStoreService._h_audit_summary, request)
        records = [AuditRecord.from_json(obj) for obj in trail["Records"]]
        return html_response(render_audit_view(contributor, records, summary["Summary"]))


class BrokerWebUI(_WebUI):
    """A consumer's pages on the broker: search, the directory, data."""

    @page("/web/search", BrokerService._h_search)
    def _h_search_page(self, request: Request) -> Response:
        """The search form, and the contributors its criteria match (a
        blank form is the vacuous search)."""
        form = dict(request.body.get("Form", {}))
        criteria: dict = {}
        sensors = list(form.get("sensors", []))
        if sensors:
            criteria["Sensor"] = sensors
        if form.get("location_label"):
            criteria["LocationLabel"] = str(form["location_label"])
        days = list(form.get("days", []))
        if days and form.get("time_from") and form.get("time_to"):
            criteria["RepeatTime"] = {
                "Day": days,
                "HourMin": [str(form["time_from"]), str(form["time_to"])],
            }
        reply = self._call(BrokerService._h_search, request, Criteria=criteria)
        return html_response(render_search_page([m["Contributor"] for m in reply["Matches"]]))

    @page("/web/data", BrokerService._h_data_proxy)
    def _h_data_page(self, request: Request) -> Response:
        """The broker's data-access page (Section 5.2): "The web interface
        provides query options such as location, time, and data channels".

        The query is proxied to the contributor's store with the
        consumer's escrowed key; the released pieces render as a table.
        """
        form = dict(request.body.get("Form", {}))
        contributor = str(form.get("contributor", ""))
        query: dict = {}
        channels = list(form.get("channels", []))
        if channels:
            query["Channels"] = channels
        if form.get("time_start") and form.get("time_end"):
            query["TimeRange"] = Interval(
                int(form["time_start"]), int(form["time_end"])
            ).to_json()
        reply = self._call(
            BrokerService._h_data_proxy, request, Contributor=contributor, Query=query
        )
        rows = "".join(
            f"<tr><td>{r.timestamp if r.timestamp is not None else '-'}</td>"
            f"<td>{_esc(', '.join(r.channels()) or '-')}</td>"
            f"<td>{r.n_samples}</td>"
            f"<td>{_esc(r.location)}</td>"
            f"<td>{_esc(', '.join(f'{k}={v}' for k, v in sorted(r.context_labels.items())) or '-')}</td></tr>"
            for r in decode_release(reply.get("Released"))
        )
        html = _page(
            f"Data from {contributor}",
            '<table border="1"><tr><th>Timestamp</th><th>Channels</th>'
            "<th>Samples</th><th>Location</th><th>Context</th></tr>"
            + (rows or '<tr><td colspan="5">Nothing released.</td></tr>')
            + "</table>",
        )
        return html_response(html)

    @page("/web/contributors", BrokerService._h_contributors_list)
    def _h_contributors_page(self, request: Request) -> Response:
        reply = self._call(BrokerService._h_contributors_list, request)
        rows = "".join(
            f"<tr><td>{_esc(r['Contributor'])}</td><td>{_esc(r['Host'])}</td>"
            f"<td>{_esc(r['Institution'])}</td><td>{r['RulesVersion']}</td></tr>"
            for r in reply["Contributors"]
        )
        body = (
            '<table border="1"><tr><th>Contributor</th><th>Store</th>'
            "<th>Institution</th><th>Rules version</th></tr>" + rows + "</table>"
        )
        return html_response(_page("Data Contributors", body))
