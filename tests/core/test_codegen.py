"""Tests for the uml2django code generator (Listings 2 and 3)."""

import ast
import os

import pytest

from repro.errors import GenerationError
from repro.core import cinder_behavior_model, cinder_resource_model
from repro.core.codegen import (
    generate_models,
    generate_project,
    generate_urls,
    generate_views,
)
from repro.core.codegen.cli import main as uml2django_main
from repro.rbac import SecurityRequirementsTable
from repro.uml import write_xmi_file


@pytest.fixture(scope="module")
def diagram():
    return cinder_resource_model()


@pytest.fixture(scope="module")
def machine():
    return cinder_behavior_model()


class TestModelsGeneration:
    def test_parses_as_python(self, diagram):
        source = generate_models(diagram)
        ast.parse(source)

    def test_one_class_per_resource(self, diagram):
        source = generate_models(diagram)
        for expected in ("class Projects(", "class Project(",
                         "class Volumes(", "class Volume(",
                         "class QuotaSets(", "class Usergroup("):
            assert expected in source

    def test_field_types_mapped(self, diagram):
        source = generate_models(diagram)
        assert "models.IntegerField()" in source       # volume.size
        assert "models.CharField(max_length=255)" in source

    def test_id_becomes_natural_key(self, diagram):
        source = generate_models(diagram)
        assert "natural_id = models.CharField(max_length=255, unique=True)" \
            in source

    def test_associations_become_foreign_keys(self, diagram):
        source = generate_models(diagram)
        assert "models.ForeignKey" in source
        assert "related_name='volumes'" in source

    def test_collection_without_members_gets_pass(self):
        from repro.core import ResourceModelBuilder

        lonely = (ResourceModelBuilder("d")
                  .collection("Things")
                  .build(validate=False))
        source = generate_models(lonely)
        assert "    pass" in source


class TestUrlsGeneration:
    def test_parses_as_python(self, diagram, machine):
        ast.parse(generate_urls(diagram, machine))

    def test_listing3_layout(self, diagram, machine):
        source = generate_urls(diagram, machine)
        assert "urlpatterns = [" in source
        assert "url(r'^cmonitor/volumes$', views.volumes" in source
        assert "url(r'^cmonitor/volumes/(?P<volume_id>[^/]+)$', " \
               "views.volume" in source

    def test_custom_mount(self, diagram, machine):
        source = generate_urls(diagram, machine, mount="monitor")
        assert "^monitor/volumes$" in source


class TestViewsGeneration:
    def test_parses_as_python(self, diagram, machine):
        ast.parse(generate_views(diagram, machine))

    def test_listing2_dispatcher(self, diagram, machine):
        source = generate_views(diagram, machine)
        assert "def volume(request, volume_id):" in source
        assert "HttpResponseNotAllowed" in source
        assert 'if request.method == "DELETE":' in source
        assert "return volume_delete(request, volume_id)" in source

    def test_listing2_delete_view(self, diagram, machine):
        source = generate_views(
            diagram, machine, cloud_base="http://cinder/v3/myProject")
        assert "def volume_delete(request, volume_id):" in source
        assert "url = 'http://cinder/v3/myProject/volumes/%s' % " \
               "(volume_id,)" in source
        assert "RequestWithMethod(url, method='DELETE'" in source
        assert "response.code not in (204,)" in source

    def test_contract_constants_embedded(self, diagram, machine):
        source = generate_views(diagram, machine)
        assert "PRE_DELETE_VOLUME" in source
        assert "POST_DELETE_VOLUME" in source
        assert "pre(" in source  # old values in the post-condition

    def test_security_requirement_variables(self, diagram, machine):
        # Step 4 of the views.py population.
        source = generate_views(diagram, machine)
        assert "SECURITY_REQUIREMENTS = ['1.4']" in source
        assert "SECURITY_REQUIREMENTS = ['1.3']" in source

    def test_skeleton_markers_present(self, diagram, machine):
        source = generate_views(diagram, machine)
        assert "TODO" in source

    def test_embedded_contracts_are_valid_ocl(self, diagram, machine):
        from repro.ocl import parse as parse_ocl

        source = generate_views(diagram, machine)
        module = ast.parse(source)
        ocl_constants = [
            node.value.value for node in ast.walk(module)
            if isinstance(node, ast.Assign)
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id.startswith(("PRE_", "POST_"))
        ]
        assert len(ocl_constants) == 10  # 5 triggers x pre+post
        for text in ocl_constants:
            parse_ocl(text)


class TestProjectAssembly:
    def test_file_tree(self, diagram, machine):
        project = generate_project("cm", diagram, machine)
        assert "cm/models.py" in project
        assert "cm/urls.py" in project
        assert "cm/views.py" in project
        assert "cm/settings.py" in project
        assert "manage.py" in project
        assert "contracts.ocl" in project

    def test_table_render_included(self, diagram, machine):
        project = generate_project(
            "cm", diagram, machine,
            table=SecurityRequirementsTable.paper_table())
        assert "security_requirements.txt" in project
        assert "proj_administrator" in project["security_requirements.txt"]

    def test_contracts_file_has_all_methods(self, diagram, machine):
        project = generate_project("cm", diagram, machine)
        contracts = project["contracts.ocl"]
        for method in ("GET", "PUT", "POST", "DELETE"):
            assert f"PreCondition({method}(" in contracts

    def test_invalid_project_name(self, diagram, machine):
        with pytest.raises(GenerationError):
            generate_project("not a name", diagram, machine)

    def test_write_to_disk(self, diagram, machine, tmp_path):
        project = generate_project("cm", diagram, machine)
        project.write_to(str(tmp_path))
        assert (tmp_path / "cm" / "views.py").exists()
        assert (tmp_path / "manage.py").exists()

    def test_len_and_contains(self, diagram, machine):
        project = generate_project("cm", diagram, machine)
        assert len(project) == 7
        assert "nothing.py" not in project


class TestCodegenOnOtherScenarios:
    """The generator is model-agnostic: it emits for any scenario."""

    def test_nova_models_generate(self):
        from repro.core.nova_scenario import (
            nova_behavior_model,
            nova_resource_model,
        )

        project = generate_project("novamon", nova_resource_model(),
                                   nova_behavior_model(),
                                   cloud_base="http://nova/v3/myProject")
        views = project["novamon/views.py"]
        ast.parse(views)
        assert "def server_delete(request, server_id):" in views
        assert "SECURITY_REQUIREMENTS = ['2.3']" in views

    def test_keystone_models_generate(self):
        from repro.core.keystone_scenario import (
            keystone_behavior_model,
            keystone_resource_model,
        )

        project = generate_project("idmon", keystone_resource_model(),
                                   keystone_behavior_model(),
                                   cloud_base="http://keystone/v3")
        views = project["idmon/views.py"]
        ast.parse(views)
        assert "def projects_post(request):" in views
        assert "def project_delete(request, project_id):" in views

    def test_release2_models_generate(self):
        project = generate_project(
            "cm2",
            cinder_resource_model(with_snapshots=True),
            cinder_behavior_model(with_snapshots=True))
        views = project["cm2/views.py"]
        ast.parse(views)
        assert "volume.snapshots->size() = 0" in views


class TestCommandLine:
    def test_paper_invocation(self, diagram, machine, tmp_path):
        # uml2django ProjectName DiagramsFileinXML
        xmi_path = os.path.join(str(tmp_path), "cinder.xmi")
        write_xmi_file(xmi_path, diagram, machine)
        exit_code = uml2django_main(
            ["cmonitor", xmi_path, "--output", str(tmp_path),
             "--paper-table"])
        assert exit_code == 0
        assert (tmp_path / "cmonitor" / "views.py").exists()
        assert (tmp_path / "security_requirements.txt").exists()

    def test_missing_file_fails(self, tmp_path):
        exit_code = uml2django_main(
            ["cmonitor", "/nonexistent.xmi", "--output", str(tmp_path)])
        assert exit_code == 1

    def test_slice_option(self, diagram, machine, tmp_path):
        xmi_path = os.path.join(str(tmp_path), "cinder.xmi")
        write_xmi_file(xmi_path, diagram, machine)
        exit_code = uml2django_main(
            ["cm", xmi_path, "--output", str(tmp_path),
             "--slice", "volume"])
        assert exit_code == 0
        with open(tmp_path / "cm" / "models.py", encoding="utf-8") as handle:
            models = handle.read()
        # quota_sets is not on the volume URI path: sliced away.
        assert "class QuotaSets" not in models
        assert "class Volume(" in models

    def test_slice_unknown_resource_fails(self, diagram, machine, tmp_path):
        xmi_path = os.path.join(str(tmp_path), "cinder.xmi")
        write_xmi_file(xmi_path, diagram, machine)
        exit_code = uml2django_main(
            ["cm", xmi_path, "--output", str(tmp_path), "--slice", "ghost"])
        assert exit_code == 1

    def test_xmi_without_machine_fails(self, diagram, tmp_path):
        xmi_path = os.path.join(str(tmp_path), "partial.xmi")
        write_xmi_file(xmi_path, diagram, None)
        exit_code = uml2django_main(["cm", xmi_path, "--output",
                                     str(tmp_path)])
        assert exit_code == 1

    def test_generated_views_drive_real_monitor(self, diagram, machine,
                                                tmp_path):
        """End-to-end: XMI -> codegen -> the contracts in the generated
        views.py are the same the runnable monitor enforces."""
        from repro.core import ContractGenerator
        from repro.ocl import parse as parse_ocl

        source = generate_views(diagram, machine)
        module = ast.parse(source)
        constants = {
            node.targets[0].id: node.value.value
            for node in ast.walk(module)
            if isinstance(node, ast.Assign)
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id.startswith(("PRE_", "POST_"))
        }
        generator = ContractGenerator(machine, diagram)
        contract = generator.for_trigger("DELETE(volume)")
        assert parse_ocl(constants["PRE_DELETE_VOLUME"]) == \
            contract.precondition
        assert parse_ocl(constants["POST_DELETE_VOLUME"]) == \
            contract.postcondition
