"""Tests for the request/response model and router."""

import pytest

from repro.exceptions import AuthenticationError, RuleError
from repro.net.http import Request, Response, Router, html_response, json_response


def make_request(method="POST", path="/api/x", body=None):
    return Request(method=method, host="h", path=path, body=body or {})


class TestRouter:
    def test_exact_route(self):
        router = Router()
        router.add("POST", "/api/echo", lambda req: {"ok": True})
        response = router.dispatch(make_request(path="/api/echo"))
        assert response.ok and response.body == {"ok": True}

    def test_path_parameters(self):
        """A path carries no parameters: a pattern matches only itself."""
        router = Router()
        router.add("GET", "/web/rules/{token}", lambda req: {"literal": True})
        assert router.dispatch(make_request(method="GET", path="/web/rules/abc")).status == 404
        response = router.dispatch(make_request(method="GET", path="/web/rules/{token}"))
        assert response.body == {"literal": True}

    def test_404_for_unknown_route(self):
        router = Router()
        response = router.dispatch(make_request(path="/nope"))
        assert response.status == 404

    def test_method_mismatch_is_404(self):
        router = Router()
        router.add("POST", "/api/x", lambda req: {})
        assert router.dispatch(make_request(method="GET", path="/api/x")).status == 404

    def test_service_error_mapped_to_status(self):
        router = Router()

        def handler(req):
            raise AuthenticationError("bad key")

        router.add("POST", "/api/x", handler)
        response = router.dispatch(make_request())
        assert response.status == 401
        assert "bad key" in response.body["Error"]

    def test_domain_error_mapped_to_400(self):
        router = Router()

        def handler(req):
            raise RuleError("bad rule")

        router.add("POST", "/api/x", handler)
        assert router.dispatch(make_request()).status == 400

    def test_handler_may_return_response(self):
        router = Router()
        router.add("POST", "/api/x", lambda req: json_response({"a": 1}, status=201))
        assert router.dispatch(make_request()).status == 201

    def test_rejects_unknown_method(self):
        router = Router()
        with pytest.raises(ValueError):
            router.add("PATCH", "/api/x", lambda req: {})


class TestHelpers:
    def test_api_key_accessor(self):
        assert make_request(body={"ApiKey": "k"}).api_key == "k"
        assert make_request().api_key is None

    def test_html_response(self):
        response = html_response("<p>hi</p>")
        assert response.content_type == "text/html"
        assert response.body["Html"] == "<p>hi</p>"

    def test_response_ok_range(self):
        assert Response(status=204).ok
        assert not Response(status=301).ok
        assert not Response(status=500).ok
