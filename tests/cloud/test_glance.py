"""Tests for the Glance-lite image service and bootable volumes."""

IMAGES = "http://glance/v2/images"
VOLUMES = "http://cinder/v3/myProject/volumes"


def register_image(client, name="img", min_disk=1):
    return client.post(IMAGES, {"name": name, "min_disk": min_disk})


def upload(client, image_id):
    return client.put(f"{IMAGES}/{image_id}/file", {})


def activate_image(client, name="img", min_disk=1):
    image_id = register_image(client, name, min_disk).json()["id"]
    upload(client, image_id)
    return image_id


class TestImageLifecycle:
    def test_register_is_queued(self, member):
        response = register_image(member)
        assert response.status_code == 201
        assert response.json()["status"] == "queued"

    def test_upload_activates(self, member):
        image_id = register_image(member).json()["id"]
        assert upload(member, image_id).status_code == 204
        image = member.get(f"{IMAGES}/{image_id}").json()
        assert image["status"] == "active"

    def test_double_upload_conflicts(self, member):
        image_id = register_image(member).json()["id"]
        upload(member, image_id)
        assert upload(member, image_id).status_code == 409

    def test_list_and_get(self, member, user):
        image_id = activate_image(member, name="ubuntu")
        listing = user.get(IMAGES).json()["images"]
        assert [image["name"] for image in listing] == ["ubuntu"]
        assert user.get(f"{IMAGES}/{image_id}").status_code == 200

    def test_get_missing(self, member):
        assert member.get(f"{IMAGES}/ghost").status_code == 404

    def test_upload_missing(self, member):
        assert upload(member, "ghost").status_code == 404

    def test_delete(self, admin, member):
        image_id = register_image(member).json()["id"]
        assert admin.delete(f"{IMAGES}/{image_id}").status_code == 204
        assert member.get(f"{IMAGES}/{image_id}").status_code == 404

    def test_bad_min_disk(self, member):
        assert member.post(IMAGES, {"min_disk": -1}).status_code == 400


class TestImageAuthorization:
    def test_user_cannot_register(self, user):
        assert register_image(user).status_code == 403

    def test_user_cannot_upload(self, member, user):
        image_id = register_image(member).json()["id"]
        assert upload(user, image_id).status_code == 403

    def test_member_cannot_delete(self, member):
        image_id = register_image(member).json()["id"]
        assert member.delete(f"{IMAGES}/{image_id}").status_code == 403

    def test_no_token_401(self, cloud):
        assert cloud.client().get(IMAGES).status_code == 401


class TestBootableVolumes:
    def test_volume_from_active_image(self, member):
        image_id = activate_image(member, min_disk=2)
        response = member.post(VOLUMES, {"volume": {"size": 3,
                                                    "imageRef": image_id}})
        assert response.status_code == 202
        volume = response.json()["volume"]
        assert volume["bootable"] is True

    def test_plain_volume_not_bootable(self, member):
        response = member.post(VOLUMES, {"volume": {"size": 1}})
        assert response.json()["volume"]["bootable"] is False

    def test_queued_image_rejected(self, member):
        image_id = register_image(member).json()["id"]  # never uploaded
        response = member.post(VOLUMES, {"volume": {"size": 2,
                                                    "imageRef": image_id}})
        assert response.status_code == 400
        assert "active" in response.json()["error"]["message"]

    def test_missing_image_rejected(self, member):
        response = member.post(VOLUMES, {"volume": {"size": 2,
                                                    "imageRef": "ghost"}})
        assert response.status_code == 400

    def test_min_disk_enforced(self, member):
        image_id = activate_image(member, min_disk=5)
        response = member.post(VOLUMES, {"volume": {"size": 2,
                                                    "imageRef": image_id}})
        assert response.status_code == 400
        assert "min_disk" in response.json()["error"]["message"]

    def test_min_disk_boundary(self, member):
        image_id = activate_image(member, min_disk=2)
        response = member.post(VOLUMES, {"volume": {"size": 2,
                                                    "imageRef": image_id}})
        assert response.status_code == 202

    def test_quota_still_applies(self, cloud, member):
        cloud.cinder.set_quota("myProject", 0)
        image_id = activate_image(member)
        response = member.post(VOLUMES, {"volume": {"size": 1,
                                                    "imageRef": image_id}})
        assert response.status_code == 413
