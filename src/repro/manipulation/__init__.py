"""Circuit manipulation: tieing nets to constants and floating outputs.

These are the two operations §3 of the paper applies before running the
structural-untestability analysis:

* connect signals to ground or Vdd ("tied'0 / tied'1") — debug control
  inputs, scan enables, constant address-register bits;
* leave debug-only output buses floating (disconnect them from any
  observer).
"""

from repro.manipulation.tie import TieRecord, tie_net, tie_port, tied_nets
from repro.manipulation.disconnect import disconnect_output_port

__all__ = [
    "TieRecord",
    "tie_net",
    "tie_port",
    "tied_nets",
    "disconnect_output_port",
]
