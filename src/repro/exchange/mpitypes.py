"""MPI derived-datatype baseline: the library packs internally.

Functionally identical to :class:`~repro.exchange.pack.PackExchanger` --
one box per neighbor -- but the application never copies anything: it
hands MPI a subarray datatype describing each box, and the datatype
engine does the gathering/scattering inside the ``call``/``wait`` phases.
Executed, the engine's gather and scatter are the same bound box moves
as an application's pack and unpack, so this exchanger binds
:func:`~repro.exchange.pack.pack_tables`; what differs is where the copy
is paid, which the plan records as ``copy="datatype"`` and
:func:`~repro.exchange.costs.datatype_cost` prices.  The paper finds
this engine catastrophically slow on KNL (MemMap is "460x faster than
MPI_Types"), which the profile's ``type_msg_overhead``/``type_engine_bw``
constants model.
"""

from __future__ import annotations

from repro.exchange.pack import PackExchanger

__all__ = ["MPITypesExchanger"]


class MPITypesExchanger(PackExchanger):
    """Derived-datatype exchange over a lexicographic extended array."""

    # benchmarks/halobench/spans.py wraps vars(MPITypesExchanger)["__init__"]
    # and ["exchange"], class-__dict__ lookups that do not see inherited
    # attributes.
    __init__ = PackExchanger.__init__
    exchange = PackExchanger.exchange
