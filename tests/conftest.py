import threading
from http.server import ThreadingHTTPServer

import pytest
from hypothesis import settings

from helpers import Stub

# ten times the default examples, for property tests that do not pin their
# own count: pytest --hypothesis-profile=ci
settings.register_profile("ci", max_examples=10 * settings.default.max_examples)


@pytest.fixture
def stub_server():
    stub = Stub()
    server = ThreadingHTTPServer(("127.0.0.1", 0), stub.handler())
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    stub.base_url = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        yield stub
    finally:
        server.shutdown()
        thread.join()
        server.server_close()
