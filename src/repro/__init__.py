"""repro — a from-scratch reproduction of "HOG: Distributed Hadoop MapReduce
on the Grid" (He, Weitzel, Swanson, Lu; SC Companion 2012).

Subpackages:

- ``repro.sim``        discrete-event simulation engine
- ``repro.net``        site topology + max-min fair network fabric
- ``repro.storage``    node-local disks
- ``repro.hdfs``       simulated HDFS (namenode/datanodes/placement/balancer)
- ``repro.mapreduce``  simulated MapReduce 1.0 (jobtracker/tasktrackers/FIFO)
- ``repro.grid``       OSG sites, Condor, GlideinWMS, preemption
- ``repro.core``       the assembled HOG system
- ``repro.workload``   the Facebook evaluation workload (Tables I/II)
- ``repro.baselines``  dedicated cluster (Table III) and HOD
- ``repro.scenarios``  declarative scenario specs, the registry, and the
                       one runner every HOG run goes through
- ``repro.metrics``    workload results, report tables, ASCII plots
- ``repro.experiments`` drivers regenerating every table and figure
                       (registry consumers)
"""

__version__ = "1.0.0"
