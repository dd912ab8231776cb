"""The SensorSafe services: remote data stores and the broker.

Both services follow the layered design of the paper's Fig. 2: every
request passes the *user authentication* layer (an API key, which is also
a web page's token) before reaching the *query/privacy processing* layer,
which consults the rule engine and the underlying database.  Both declare
their endpoints with :mod:`repro.server.routes`.
"""

from repro.server.datastore_service import DataStoreService
from repro.server.broker_service import BrokerService
from repro.server.audit import AuditLog, AuditRecord

__all__ = [
    "DataStoreService",
    "BrokerService",
    "AuditLog",
    "AuditRecord",
]
