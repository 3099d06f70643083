"""Behavioral simulator and compiler for memristor-based analog CAMs."""

from .array import (ArraySpec, Parasitics, analytic_range_shift,
                    discharge_latency, effective_bounds_in_array, make_array,
                    max_word_length, search_many, search_words, sweep_column)
from .cell import (CellConfig, VoltageInterval, achievable_window,
                   bounds_from_conductance, calibrate, calibrated_defaults,
                   conductance_from_bounds, quantize_levels)
from .cost import (AreaParams, CostReport, EnergyParams,
                   compare_range_implementations, energy_per_search)
from .devices import (DeviceParams, MemristorState, TsDeviceParams,
                      program_memristor, pulldown_conductance,
                      transistor_conductance)
from .errors import AcamError
from .tables import (CamTable, DigitSpec, DigitWord, RangeRule, compile_rules,
                     lower_to_conductances, range_to_digits)
from .trees import (DecisionTree, FeatureSpec, TreeLeaf, TreeNode, TreeTable,
                    classify_many, tree_to_cam)

__version__ = "0.1.0"
