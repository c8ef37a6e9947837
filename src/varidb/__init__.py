"""varidb: a variational database engine.

Many relational database variants stored as one feature-annotated database,
queried through a statically checked variational relational algebra.  The
pipeline: parse a query (`vra`), type check it against the v-schema and
push the schema's presence conditions onto it (`typecheck`, one walk for
both), shrink its variation (`minimize`), answer it per configuration or
per variant group (`relengine`, which configures and groups queries with
`translate`), or print it as SQL (`sqlgen`).
"""

from .catalog import (
    AttrType,
    CatalogError,
    VAttr,
    VRelSchema,
    VSchema,
    configure_schema,
    count_schema_variants,
    parse_config,
    parse_schema,
    print_schema,
)
from .featexpr import (
    FALSE,
    TRUE,
    And,
    BoolLit,
    Feature,
    FeatExpr,
    Not,
    Or,
    ParseError,
    all_configs,
    equiv,
    eval_fexp,
    implies,
    parse_fexp,
    print_fexp,
    sat,
    simplify,
    solutions,
    taut,
)
from .minimize import RULE_NAMES, apply_rule, lift, minimize, variation_weight
from .relengine import (
    TrackedTable,
    eval_plain,
    eval_tracked,
    result_schema,
    run_configure,
    run_group,
)
from .sqlgen import EmptyGroup, SqlError, SqlStatement, sql_of_plain, sql_union
from .storage import (
    PlainTable,
    StorageError,
    VDBInstance,
    VTable,
    VTuple,
    configure_db,
    configure_table,
    load_vdb,
    parse_vtable,
    print_vtable,
    save_vdb,
    validate_vtable,
)
from .translate import (
    TooManyFeatures,
    configure_query,
    group_generic,
    group_query,
)
from .typecheck import (
    PlainTypeError,
    QueryType,
    VTypeError,
    check_variation_preservation,
    plain_type,
    push_schema,
    type_of,
)
from .vra import parse_query, print_query
from .vset import (
    VElem,
    VSet,
    configure_vset,
    parse_vset,
    print_vset,
    push_annotation,
    subsumes,
    vset,
    vset_equiv,
    vset_intersect,
    vset_union,
)

__version__ = "0.1.0"
