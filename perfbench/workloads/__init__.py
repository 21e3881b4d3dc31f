"""The seven workloads, by name."""

from perfbench.workloads.disk import DiskSmallPool
from perfbench.workloads.library import AdaptCold, LibReplay
from perfbench.workloads.net import Wire2Conn
from perfbench.workloads.serving import MixedRW, ServeHot
from perfbench.workloads.sharded import Shard4

BY_NAME = {cls.name: cls for cls in (LibReplay, AdaptCold, ServeHot, MixedRW,
                                     Wire2Conn, Shard4, DiskSmallPool)}
