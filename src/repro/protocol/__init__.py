"""The memcached protocols with the paper's cost extension.

Text protocol (the paper's choice) plus the binary protocol (with the
cost carried in extended SET extras), over in-process and TCP transports.
"""

from repro.protocol.estimator import CostEstimator
from repro.protocol.binary import (
    BinaryClient,
    BinaryFrame,
    BinaryParser,
    BinaryStoreServer,
)
from repro.protocol.client import (
    CostAwareClient,
    LoopbackTransport,
    TCPTransport,
    Transport,
)
from repro.protocol.commands import (
    DELETED,
    DeleteCommand,
    EXISTS,
    FlushCommand,
    IncrCommand,
    NumberResponse,
    GetCommand,
    GetResponse,
    NOT_FOUND,
    NOT_STORED,
    OK,
    ProtocolError,
    QuitCommand,
    STORED,
    ServerBusyError,
    SimpleResponse,
    StatsCommand,
    StatsResponse,
    StoreCommand,
    TOUCHED,
    TouchCommand,
    ValueResponse,
)
from repro.protocol.server import (
    LoopbackConnection,
    StoreConnection,
    StoreServer,
)
from repro.protocol.sockopt import SOCKET_BUFFER, tune_socket
from repro.protocol.text import (
    RequestParser,
    ResponseParser,
    encode_command,
    encode_response,
)

__all__ = [
    "BinaryClient",
    "BinaryFrame",
    "BinaryParser",
    "BinaryStoreServer",
    "CostAwareClient",
    "CostEstimator",
    "DELETED",
    "DeleteCommand",
    "EXISTS",
    "FlushCommand",
    "IncrCommand",
    "NumberResponse",
    "GetCommand",
    "GetResponse",
    "LoopbackConnection",
    "LoopbackTransport",
    "NOT_FOUND",
    "NOT_STORED",
    "OK",
    "ProtocolError",
    "QuitCommand",
    "RequestParser",
    "ResponseParser",
    "SOCKET_BUFFER",
    "STORED",
    "ServerBusyError",
    "SimpleResponse",
    "StatsCommand",
    "StatsResponse",
    "StoreCommand",
    "StoreConnection",
    "StoreServer",
    "TCPTransport",
    "TOUCHED",
    "TouchCommand",
    "Transport",
    "ValueResponse",
    "tune_socket",
    "encode_command",
    "encode_response",
]
